"""Exact sparse multivariate polynomials over F2 and Q with triangular normal forms.

Monomials are exponent tuples; the canonical order is graded lexicographic
with the *last* variable most significant.  A triangular system consists of
one relation per variable, the j-th having an invertible constant coefficient
on its top power of T_j, so multivariate division terminates with a unique
remainder whose T_j-degree is below that top power for every j.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import product
from math import prod

from .errors import InputError

__all__ = [
    "F2",
    "Q",
    "Poly",
    "TriangularSystem",
    "reduce",
    "reduce_in_variable",
    "quotient_basis",
    "is_zero_in_quotient",
    "format_poly",
    "parse_poly",
]

F2 = "F2"
Q = "Q"


def monomial_key(m):
    """Sort key realizing graded lex order with T_l > ... > T_1."""
    return (sum(m), tuple(reversed(m)))


def _check_field(field):
    if field not in (F2, Q):
        raise InputError(f"unknown field tag {field!r}")


def _coeff(field, value):
    if field == F2:
        return int(value) % 2
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


def _cadd(field, a, b):
    return (a + b) % 2 if field == F2 else a + b


def _cmul(field, a, b):
    return (a * b) % 2 if field == F2 else a * b


def _cneg(field, a):
    return a if field == F2 else -a


def _cdiv(field, a, b):
    return a if field == F2 else a / b


class Poly:
    """Immutable sparse polynomial in canonical form (no zero coefficients)."""

    __slots__ = ("field", "nvars", "_terms")

    def __init__(self, field, nvars, terms=None):
        _check_field(field)
        nvars = int(nvars)
        if nvars < 0:
            raise InputError("variable count must be nonnegative")
        clean = {}
        items = terms.items() if isinstance(terms, dict) else (terms or ())
        for m, c in items:
            m = tuple(int(e) for e in m)
            if len(m) != nvars:
                raise InputError(f"monomial {m} does not have {nvars} exponents")
            if any(e < 0 for e in m):
                raise InputError(f"negative exponent in monomial {m}")
            c = _cadd(field, clean.get(m, _coeff(field, 0)), _coeff(field, c))
            if c:
                clean[m] = c
            else:
                clean.pop(m, None)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_terms", clean)

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
        return cls(field, nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, field, nvars, index):
        """The variable T_index (1-based)."""
        if not 1 <= index <= nvars:
            raise InputError(f"variable index {index} out of range 1..{nvars}")
        m = [0] * nvars
        m[index - 1] = 1
        return cls(field, nvars, {tuple(m): 1})

    @classmethod
    def linear_form(cls, field, coeffs):
        """sum_j coeffs[j] * T_{j+1}."""
        nvars = len(coeffs)
        terms = {}
        for j, c in enumerate(coeffs):
            m = [0] * nvars
            m[j] = 1
            terms[tuple(m)] = c
        return cls(field, nvars, terms)

    # -- inspection ---------------------------------------------------------

    def is_zero(self):
        return not self._terms

    def terms(self):
        return dict(self._terms)

    def sorted_terms(self):
        return sorted(self._terms.items(), key=lambda mc: monomial_key(mc[0]))

    def coefficient(self, m):
        return self._terms.get(tuple(m), _coeff(self.field, 0))

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
            s = _cadd(self.field, terms.get(m, _coeff(self.field, 0)), c)
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
        return Poly(self.field, self.nvars, terms)

    def __neg__(self):
        if self.field == F2:
            return self
        return Poly(self.field, self.nvars, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_same_ring(other)
        field = self.field
        terms = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                s = _cadd(field, terms.get(m, _coeff(field, 0)), _cmul(field, c1, c2))
                if s:
                    terms[m] = s
                else:
                    terms.pop(m, None)
        return Poly(field, self.nvars, terms)

    def __pow__(self, exponent):
        exponent = int(exponent)
        if exponent < 0:
            raise InputError("negative polynomial powers are not defined here")
        result = Poly.one(self.field, self.nvars)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def scaled(self, c):
        c = _coeff(self.field, c)
        if not c:
            return Poly.zero(self.field, self.nvars)
        return Poly(self.field, self.nvars, {m: _cmul(self.field, v, c) for m, v in self._terms.items()})

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


class TriangularSystem:
    """Relations g_1..g_l with g_j monic (up to an invertible constant) in T_j.

    Validates that g_j involves only T_1..T_j, has T_j-degree d_j >= 1, and
    that the coefficient of T_j^{d_j} is a nonzero constant (1 over F2).
    """

    __slots__ = ("field", "nvars", "gens", "lead_degrees", "lead_coeffs")

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
        leads = []
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
            leads.append(lead)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "lead_degrees", tuple(degrees))
        object.__setattr__(self, "lead_coeffs", tuple(leads))

    def __setattr__(self, name, value):
        raise AttributeError("TriangularSystem is immutable")

    @property
    def quotient_dimension(self):
        return prod(self.lead_degrees)

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
    """Eliminate every T_j-power >= d_j from p by division against g_j."""
    _check_match(p, system)
    g = system.gens[j - 1]
    d = system.lead_degrees[j - 1]
    lc = system.lead_coeffs[j - 1]
    field = p.field
    terms = dict(p._terms)
    while True:
        top = max((m[j - 1] for m in terms), default=-1)
        if top < d:
            break
        head = [(m, c) for m, c in terms.items() if m[j - 1] == top]
        for m, c in head:
            q = _cdiv(field, c, lc)
            base = list(m)
            base[j - 1] = top - d
            for mg, cg in g._terms.items():
                mm = tuple(b + e for b, e in zip(base, mg))
                s = _cadd(field, terms.get(mm, _coeff(field, 0)), _cneg(field, _cmul(field, q, cg)))
                if s:
                    terms[mm] = s
                else:
                    terms.pop(mm, None)
    return Poly(field, p.nvars, terms)


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


def is_zero_in_quotient(p, system):
    """(True, None) when p lies in the ideal; otherwise (False, normal form)."""
    r = reduce(p, system)
    if r.is_zero():
        return True, None
    return False, r


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
        if p.field == F2:
            parts.append(vars_part or "1")
        else:
            parts.append(f"{c}*{vars_part}" if vars_part else str(c))
    return "+".join(parts)


def parse_poly(text, field, nvars):
    """Parse the polynomial text format; whitespace and term order are free."""
    _check_field(field)
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
        coeff = _coeff(field, 1)
        exps = [0] * nvars
        for factor in term.split("*"):
            if not factor:
                raise InputError(f"malformed term {term!r}")
            negate = False
            if factor.startswith("-") and _VAR_RE.match(factor[1:] or " "):
                negate = True
                factor = factor[1:]
            if _NUM_RE.match(factor):
                if field == F2 and "/" in factor:
                    raise InputError(f"fractional coefficient {factor!r} over F2")
                coeff = _cmul(field, coeff, _coeff(field, factor))
                continue
            m = _VAR_RE.match(factor)
            if not m:
                raise InputError(f"unrecognized factor {factor!r}")
            idx = int(m.group(1))
            if not 1 <= idx <= nvars:
                raise InputError(f"variable T{idx} out of range for {nvars} variables")
            exps[idx - 1] += int(m.group(2) or 1)
            if negate:
                coeff = _cmul(field, coeff, _coeff(field, -1))
        mono = tuple(exps)
        s2 = _cadd(field, acc.get(mono, _coeff(field, 0)), coeff)
        if s2:
            acc[mono] = s2
        else:
            acc.pop(mono, None)
    if not seen_term:
        raise InputError("empty polynomial text")
    return Poly(field, nvars, acc)
