"""Exact sparse multivariate polynomials over F2 and Q with triangular normal forms.

The fields are the `Field` values `F2` and `Q`: strings equal to their tags,
so "F2" and "Q" still name them through `as_field`.  Each carries strict
coercion, the normalisation of a sum or product (mod 2 over F2, none over Q),
inverses, the canonical vector on a line (mod 2 over F2; primitive and
sign-normalised over Q) and the text of a term, so no code here or in
`linalg` branches on a tag.

Monomials are exponent tuples; the canonical order is graded lexicographic
with the *last* variable most significant.  A triangular system consists of
one relation per variable, the j-th having an invertible constant coefficient
on its top power of T_j, so multivariate division terminates with a unique
remainder whose T_j-degree is below that top power for every j.  The system
is the quotient ring itself: `reduce(p, system)` is the normal form of p's
class (zero exactly when p lies in the ideal), `quotient_basis(system)` the
monomial basis, and the system carries its dimension and Hilbert series.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import product
from math import gcd, prod
from operator import add

from .errors import InputError, require_int

__all__ = [
    "F2",
    "Q",
    "Field",
    "as_field",
    "Poly",
    "power",
    "TriangularSystem",
    "reduce",
    "reduce_in_variable",
    "quotient_basis",
    "format_poly",
    "parse_poly",
]


class Field(str):
    """A coefficient field that compares and hashes as its tag string.

    Elements are ints over F2 and Fractions over Q.  Arithmetic may add and
    multiply raw elements and apply `norm` once at the end.
    """

    def coerce(self, value):
        """`value` as a field element.  Only ints and Fractions are read:
        bools, floats and everything else are input errors, never rounded."""
        if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
            raise InputError(f"coefficient {value!r} must be an int or a Fraction")
        return self._element(value)

    def inverse(self, c):
        return self.coerce(Fraction(1, c))


class _F2(Field):
    @staticmethod
    def _element(value):
        if value.denominator != 1:
            raise InputError(f"coefficient {value} is not an element of F2")
        return value.numerator % 2

    @staticmethod
    def norm(c):
        return c % 2

    @staticmethod
    def line(v):
        """The vector mod 2: over F2 every nonzero vector is its own line."""
        return tuple(a % 2 for a in v)

    @staticmethod
    def term_text(c, monomial):
        return monomial or "1"


class _Q(Field):
    @staticmethod
    def _element(value):
        return Fraction(value)

    @staticmethod
    def norm(c):
        return c

    @staticmethod
    def line(v):
        """Primitive integer multiple of an integer vector, first nonzero
        entry positive; the zero vector stays zero."""
        g = gcd(*v)
        if g and next(a for a in v if a) < 0:
            g = -g
        return tuple(a // g for a in v) if g else tuple(v)

    @staticmethod
    def term_text(c, monomial):
        return f"{c}*{monomial}" if monomial else str(c)


F2 = _F2("F2")
Q = _Q("Q")
_FIELDS = {F2: F2, Q: Q}


def as_field(tag):
    """The Field named by `tag`: F2, Q, or the plain string "F2" or "Q"."""
    try:
        return _FIELDS[tag]
    except (KeyError, TypeError):
        raise InputError(f"unknown field tag {tag!r}") from None


def monomial_key(m):
    """Sort key realizing graded lex order with T_l > ... > T_1."""
    return (sum(m), tuple(reversed(m)))


class Poly:
    """Immutable sparse polynomial in canonical form (no zero coefficients).

    The constructor validates every term; arithmetic builds its results with
    `_trusted`, which only normalises the coefficients and drops zeros.
    """

    __slots__ = ("field", "nvars", "_terms")

    def __init__(self, field, nvars, terms=None):
        field = as_field(field)
        nvars = require_int(nvars, "variable count")
        if nvars < 0:
            raise InputError("variable count must be nonnegative")
        raw = {}
        items = terms.items() if isinstance(terms, dict) else (terms or ())
        for m, c in items:
            m = tuple(require_int(e, "exponent") for e in m)
            if len(m) != nvars:
                raise InputError(f"monomial {m} does not have {nvars} exponents")
            if any(e < 0 for e in m):
                raise InputError(f"negative exponent in monomial {m}")
            raw[m] = raw.get(m, 0) + field.coerce(c)
        self._set(field, nvars, raw)

    def _set(self, field, nvars, raw):
        norm = field.norm
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_terms", {m: c for m, r in raw.items() if (c := norm(r))})

    @classmethod
    def _trusted(cls, field, nvars, raw):
        """Poly from valid monomials and raw sums of field elements."""
        p = object.__new__(cls)
        p._set(field, nvars, raw)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, field, nvars):
        return cls(field, nvars)

    @classmethod
    def one(cls, field, nvars):
        return cls.constant(field, nvars, 1)

    @classmethod
    def constant(cls, field, nvars, value):
        return cls(field, nvars, {(0,) * require_int(nvars, "variable count"): value})

    @classmethod
    def variable(cls, field, nvars, index):
        """The variable T_index (1-based)."""
        nvars = require_int(nvars, "variable count")
        if not 1 <= require_int(index, "variable index") <= nvars:
            raise InputError(f"variable index {index} out of range 1..{nvars}")
        m = [0] * nvars
        m[index - 1] = 1
        return cls(field, nvars, {tuple(m): 1})

    @classmethod
    def linear_form(cls, field, coeffs):
        """sum_j coeffs[j] * T_{j+1}; only the coefficients need checking."""
        field = as_field(field)
        nvars = len(coeffs)
        terms = {}
        for j, c in enumerate(coeffs):
            m = [0] * nvars
            m[j] = 1
            terms[tuple(m)] = field.coerce(c)
        return cls._trusted(field, nvars, terms)

    # -- inspection ---------------------------------------------------------

    def is_zero(self):
        return not self._terms

    def terms(self):
        return dict(self._terms)

    def term_count(self):
        return len(self._terms)

    def sorted_terms(self):
        return sorted(self._terms.items(), key=lambda mc: monomial_key(mc[0]))

    def coefficient(self, m):
        return self._terms.get(tuple(m), self.field.coerce(0))

    def total_degree(self):
        if not self._terms:
            raise ValueError("the zero polynomial has no degree")
        return max(sum(m) for m in self._terms)

    def degree_in(self, j):
        """Degree in variable T_j (1-based); -1 for the zero polynomial."""
        return max((m[j - 1] for m in self._terms), default=-1)

    # -- arithmetic ---------------------------------------------------------

    def _check_same_ring(self, other):
        if not isinstance(other, Poly):
            raise InputError(f"expected a Poly, got {type(other).__name__}")
        if self.field != other.field or self.nvars != other.nvars:
            raise InputError("mismatched field or variable count")

    def __add__(self, other):
        self._check_same_ring(other)
        terms = dict(self._terms)
        for m, c in other._terms.items():
            terms[m] = terms.get(m, 0) + c
        return Poly._trusted(self.field, self.nvars, terms)

    def __neg__(self):
        return Poly._trusted(self.field, self.nvars, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_same_ring(other)
        terms = {}
        get = terms.get
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = tuple(map(add, m1, m2))
                terms[m] = get(m, 0) + c1 * c2
        return Poly._trusted(self.field, self.nvars, terms)

    def __pow__(self, exponent):
        exponent = require_int(exponent, "polynomial power")
        if exponent < 0:
            raise InputError("negative polynomial powers are not defined here")
        if not exponent:
            return Poly.one(self.field, self.nvars)
        return power(self, exponent, lambda p: p)

    def scaled(self, c):
        c = self.field.coerce(c)
        return Poly._trusted(self.field, self.nvars, {m: v * c for m, v in self._terms.items()})

    # -- equality -----------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.nvars == other.nvars
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.field, self.nvars, frozenset(self._terms.items())))

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"Poly({self.field}, {self.nvars}, {format_poly(self)!r})"


def power(p, exponent, step):
    """p ** exponent for exponent >= 1, by repeated squaring.

    Every product is passed through `step`, which may reduce it or check its
    size.  Squaring keeps a power of a linear form short over F2, where the
    square of a sum is the sum of the squares.
    """
    result = None
    while True:
        if exponent & 1:
            result = p if result is None else step(result * p)
        exponent >>= 1
        if not exponent:
            return result
        p = step(p * p)


class TriangularSystem:
    """Relations g_1..g_l with g_j monic (up to an invertible constant) in T_j.

    Validates that g_j involves only T_1..T_j, has T_j-degree d_j >= 1, and
    that the coefficient of T_j^{d_j} is a nonzero constant (1 over F2).
    The division tails are precomputed once: `tails[j - 1]` lists, for every
    other term c*m of g_j, the triple (m / T_j^{d_j}, T_j-shift, -c/lead), so
    T_j^{d_j} * x rewrites to the sum of shifted x times these terms.
    """

    __slots__ = ("field", "nvars", "gens", "lead_degrees", "tails")

    def __init__(self, gens):
        gens = tuple(gens)
        if not gens:
            raise InputError("a triangular system needs at least one generator")
        field = gens[0].field
        nvars = gens[0].nvars
        if len(gens) != nvars:
            raise InputError(
                f"need exactly one generator per variable, got {len(gens)} for {nvars} variables"
            )
        degrees = []
        tails = []
        for j, g in enumerate(gens, start=1):
            if not isinstance(g, Poly):
                raise InputError("generators must be Poly values")
            if g.field != field or g.nvars != nvars:
                raise InputError("mismatched field or variable count among generators")
            if g.is_zero():
                raise InputError(f"generator {j} is zero")
            d = 0
            for m in g._terms:
                if any(m[i] for i in range(j, nvars)):
                    raise InputError(f"generator {j} involves a variable beyond T{j}")
                if m[j - 1] > d:
                    d = m[j - 1]
            if d < 1:
                raise InputError(f"generator {j} has no T{j} term")
            lead = None
            for m, c in g._terms.items():
                if m[j - 1] == d:
                    if any(m[i] for i in range(nvars) if i != j - 1):
                        raise InputError(
                            f"leading T{j}-coefficient of generator {j} is not constant"
                        )
                    lead = c
            degrees.append(d)
            scale = -field.inverse(lead)
            i = j - 1
            tails.append(tuple(
                (m[:i] + (m[i] - d,) + m[i + 1:], m[i] - d, field.norm(c * scale))
                for m, c in g._terms.items()
                if m[i] < d
            ))
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "lead_degrees", tuple(degrees))
        object.__setattr__(self, "tails", tuple(tails))

    def __setattr__(self, name, value):
        raise AttributeError("TriangularSystem is immutable")

    @property
    def quotient_dimension(self):
        return prod(self.lead_degrees)

    def hilbert_coefficients(self):
        """Coefficients of prod_j (1 + q + ... + q^{d_j - 1})."""
        coeffs = [1]
        for d in self.lead_degrees:
            new = [0] * (len(coeffs) + d - 1)
            for i, c in enumerate(coeffs):
                for e in range(d):
                    new[i + e] += c
            coeffs = new
        return coeffs

    def relation_texts(self):
        return [format_poly(g) for g in self.gens]

    def __eq__(self, other):
        return isinstance(other, TriangularSystem) and self.gens == other.gens

    def __hash__(self):
        return hash(self.gens)

    def __repr__(self):
        return f"TriangularSystem({list(self.gens)!r})"


def _check_match(p, system):
    if p.field != system.field or p.nvars != system.nvars:
        raise InputError("polynomial and system have mismatched field or variable count")


def reduce_in_variable(p, j, system):
    """Eliminate every T_j-power >= d_j from p by division against g_j.

    T_j^{d_j} is rewritten with the system's precomputed tail of g_j, one
    T_j-degree at a time from the top down: rewriting only adds lower degrees,
    so a coefficient is final when its degree is reached.  A p with no T_j-power
    reaching d_j is already reduced and is returned itself.
    """
    _check_match(p, system)
    i = j - 1
    d = system.lead_degrees[i]
    if all(m[i] < d for m in p._terms):
        return p
    norm = p.field.norm
    tail = system.tails[i]
    levels = {}
    for m, c in p._terms.items():
        levels.setdefault(m[i], {})[m] = c
    while levels and (top := max(levels)) >= d:
        heads = levels.pop(top)
        targets = [(mt, levels.setdefault(top + shift, {}), ct) for mt, shift, ct in tail]
        for m, c in heads.items():
            c = norm(c)
            if c:
                for mt, level, ct in targets:
                    mm = tuple(map(add, m, mt))
                    level[mm] = level.get(mm, 0) + c * ct
    terms = {}
    for level in levels.values():
        terms.update(level)
    return Poly._trusted(p.field, p.nvars, terms)


def reduce(p, system):
    """Normal form of p modulo the system: every T_j-degree ends below d_j.

    Variables are cleared from the highest index down; clearing T_j can only
    introduce variables below T_j, so one sweep suffices.
    """
    _check_match(p, system)
    r = p
    for j in range(system.nvars, 0, -1):
        r = reduce_in_variable(r, j, system)
    return r


def quotient_basis(system):
    """Monomials prod T_j^{r_j} with 0 <= r_j < d_j, in graded-lex order."""
    ranges = [range(d) for d in system.lead_degrees]
    return sorted(product(*ranges), key=monomial_key)


# ---------------------------------------------------------------------------
# Text format: terms `c*T1^a*T2^b` joined by `+`
# ---------------------------------------------------------------------------

_NUM_RE = re.compile(r"-?\d+(?:/\d+)?\Z")
_VAR_RE = re.compile(r"T(\d+)(?:\^(\d+))?\Z")


def format_poly(p):
    """Canonical text form: ascending graded-lex terms, `1` coefficients
    omitted over F2, rationals as num/den."""
    if p.is_zero():
        return "0"
    parts = []
    for m, c in p.sorted_terms():
        vars_part = "*".join(
            f"T{i + 1}" if e == 1 else f"T{i + 1}^{e}"
            for i, e in enumerate(m)
            if e
        )
        parts.append(p.field.term_text(c, vars_part))
    return "+".join(parts)


def parse_poly(text, field, nvars):
    """Parse the polynomial text format; whitespace and term order are free."""
    field = as_field(field)
    nvars = require_int(nvars, "variable count")
    s = "".join(str(text).split())
    if not s:
        raise InputError("empty polynomial text")
    s = s.replace("-", "+-")
    acc = {}
    seen_term = False
    for term in s.split("+"):
        if not term:
            continue
        seen_term = True
        coeff = 1
        exps = [0] * nvars
        for factor in term.split("*"):
            if not factor:
                raise InputError(f"malformed term {term!r}")
            negate = False
            if factor.startswith("-") and _VAR_RE.match(factor[1:] or " "):
                negate = True
                factor = factor[1:]
            if _NUM_RE.match(factor):
                try:
                    coeff *= field.coerce(Fraction(factor))
                except ZeroDivisionError:
                    raise InputError(f"zero denominator in {factor!r}") from None
                continue
            m = _VAR_RE.match(factor)
            if not m:
                raise InputError(f"unrecognized factor {factor!r}")
            idx = int(m.group(1))
            if not 1 <= idx <= nvars:
                raise InputError(f"variable T{idx} out of range for {nvars} variables")
            exps[idx - 1] += int(m.group(2) or 1)
            if negate:
                coeff = -coeff
        mono = tuple(exps)
        acc[mono] = acc.get(mono, 0) + coeff
    if not seen_term:
        raise InputError("empty polynomial text")
    return Poly(field, nvars, acc)
