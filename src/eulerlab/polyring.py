"""Exact sparse multivariate polynomials over F2 and Q with triangular normal forms.

The fields are the `Field` values `F2` and `Q`: strings equal to their tags,
so "F2" and "Q" still name them through `as_field`.  Each carries strict
coercion, the normalisation of a sum or product (mod 2 over F2; over Q an
integral value becomes an int), inverses, the canonical vector on a line
(mod 2 over F2; primitive and sign-normalised over Q) and the text of a term,
so no code here or in `linalg` branches on a tag.

An element of F2 is the int 0 or 1.  An element of Q is an int when it is
integral and a Fraction otherwise, so most coefficients of Euler classes and
flag coordinates never build a Fraction.  Python's arithmetic, comparison and
hashing are exact across int and Fraction, and `str(Fraction(2)) == "2"`, so
callers never check which type an element has.  `fractions` loads only for a
coefficient whose type is not exactly int, the inverse of other than 1 or -1,
or coefficient text with a `/`; integral input over F2 never loads it.

Monomials are exponent tuples at the interface (`Poly`, `parse_poly`, the
read-only mapping `terms()`, `sorted_terms`, `quotient_basis`);
the canonical order is graded lexicographic with the *last* variable most
significant.

Inside a `Poly` each monomial is one int holding a 32-bit field per variable,
T_j in bits [32(j-1), 32j), so a product of monomials is one int addition and
a T_j-degree is `(m >> 32(j-1)) & MASK`.  The top bit of every field is a
guard bit: exponents are capped at MAX_EXPONENT = 2^31 - 1 and never wrap.  A
larger exponent given to `Poly` or `parse_poly` is an InputError; one
produced by a product, a power or a reduction sets a guard bit on a result
key and raises ResourceLimitError, unless the drop rule below shows that the
key lies in the ideal.

A triangular system consists of one relation per variable, the j-th having an
invertible constant coefficient on its top power of T_j, so multivariate
division terminates with a unique remainder whose T_j-degree is below that
top power for every j.  The system is the quotient ring itself:
`reduce(p, system)` is the normal form of p's class (zero exactly when p lies
in the ideal), `quotient_basis(system)` the monomial basis, and the system
carries its dimension and Hilbert series.  Those, and the packed constants
of the drop rule below, need only each d_j, whether the system is graded
and, when it is not, which relations are single terms.  So a graded system
can be given its lead degrees alone and build each relation only when
something reads it (an Euler-class presentation does: its top relation is
often never read).  The normal form cannot depend on which relations were
built: it is fixed by the ideal and the leading terms, and a reduction reads
g_j only to rewrite a term that reaches d_j in T_j.

`reduce` drops every term it meets or forms that one rule, chosen when the
system is built, shows to lie in the ideal, instead of rewriting it down to
T_1.  The system is a Groebner basis, so every element of the ideal has
normal form 0 and the normal form is unique: dropping such a term cannot
change it.  A system is graded when no term of any g_j has lower total
degree than T_j^{d_j}, as every Euler-class presentation and flag ring is.
Then a monomial whose degree in T_1..T_i exceeds S_i = sum_{k <= i} (d_k - 1)
has normal form 0:
  - rewriting by g_k with k > i never lowers the degree in T_1..T_i;
  - rewriting by g_k with k <= i never lowers it either, the system being graded;
  - no standard monomial has degree above S_i in T_1..T_i.
A graded system uses this prefix-degree rule alone.  It drops whatever a
single-term g_1 = c*T_1^{d_1} kills, and a term that a later single-term g_k
kills vanishes when level k rewrites it by g_k's empty tail, so a second
rule for single terms would only drop some terms sooner.  Any other system
uses the single-term rule: a relation c*T_k^{d_k} kills every multiple of
T_k^{d_k}.  Either test is one product, one addition and one AND on the
packed key: the product puts every prefix sum of the exponents in a field of
its own.  A key that the rule marks is dropped, and only a kept key is
refused: the exponent checks run on what the rule keeps.  `reps.euler_poly`
applies the same rule to every product it forms, so a term of e(V) that the
rule marks is dropped there and never multiplied again or handed to
`reduce`; `reduce` drops the marked terms of any other input.

The prefix sums may pass 2^32 and carry, yet the prefix-degree test is exact.
Call level i *lifted* when S_i < 2^31; S is nondecreasing, so the lifted
levels come first, and the rule reads P_i at those levels only.
  Lemma.  For a key m whose fields are below 2^32,
  `(m * _prefix_mult(l) + lift) & bits` is nonzero only when P_i > S_i at
  some lifted level i, and for m with no guard bit exactly then.
  Why: while P_k <= S_k, prefix field l + k holds P_k + 2^31 - 1 - S_k < 2^31
  and carries nothing, so no rule bit is set before the first lifted i with
  P_i > S_i.  With no guard bit,
  P_i = P_{i-1} + e_i <= S_{i-1} + 2^31 - 1 <= S_i + 2^31 - 1 (P_0 = S_0 = 0),
  so field l + i holds a value in [2^31, 2^32) and its rule bit is set.
The single-term test is one-way in the same way: a carry out of field k
needs e_k >= 2^31 + d_k.  Every key the rules read has no guard bit or is
the sum of two keys with none: a head less T_j^{d_j} and a term of g_j, a
far factor and a power's normal form, or two factors.  So its fields are
below 2^32, and a key the rule marks lies in the ideal whatever its guard
bits.  On every kept key with no guard bit, field l + k of the product
holds exactly P_k + 2^31 - 1 - S_k at every lifted level k.

A deferred system, whose relations are homogeneous, is read only as deep as
the prefix-degree rule lets a relation matter.  Rewriting a head m, a term
that reaches d_j, by g_j gives m - T_j^{d_j} + t for every other term t of
g_j, of degree P_{j-1}(m) + P_{j-1}(t) in T_1..T_{j-1}; the rule drops it
when that exceeds S_{j-1}.  So a term t deeper than the head's room
S_{j-1} - P_{j-1}(m) only forms terms the rule drops, and every term the
rewriting keeps has P_{j-1} at least its head's, so later heads have no more
room.  A reduction at level j therefore builds g_j only to the largest room
of its heads: the terms of degree at most that in T_1..T_{j-1}, which a
build finds by dropping the deeper terms of each partial product (a factor
never lowers that degree).  A deeper request builds it again, and reading
the relation itself builds it whole.  A level reads its relation to a depth
only when level j - 1 is lifted.  A term left unformed lies in the ideal (a
whole relation may form it past the exponent limit and refuse it); the
normal form is the one whole relations give.
"""

import re
from collections.abc import Mapping
from functools import cache
from functools import reduce as fold
from itertools import product
from math import gcd, prod
from operator import mul, or_

from .errors import MAX_GROUP_RANK, InputError, ResourceLimitError, require_count, require_int, too_many_digits

__all__ = [
    "F2",
    "Q",
    "Field",
    "as_field",
    "Poly",
    "power",
    "TriangularSystem",
    "reduce",
    "quotient_basis",
    "format_poly",
    "parse_poly",
    "MAX_EXPONENT",
]

BITS = 32
MASK = (1 << BITS) - 1
MAX_EXPONENT = (1 << (BITS - 1)) - 1
# `reduce` replaces x * T_j^e by x times the memoised normal form of T_j^e
# once e >= FAR_FACTOR * d_j.  A product of two normal forms stays below
# 2 d_j in T_j, but clearing the higher variables first lifts the lower
# degrees of rank-5 Euler classes to about 4 d_j, where squaring costs more
# than rewriting level by level.
FAR_FACTOR = 8


def _shifts(nvars):
    return range(0, BITS * nvars, BITS)


@cache
def _guard(nvars):
    """The guard bits of every field: set on a key exactly when one of its
    exponents exceeds MAX_EXPONENT."""
    return sum(1 << (s + BITS - 1) for s in _shifts(nvars))


@cache
def _prefix_mult(nvars):
    """1 + sum_i 2^(32(l + i - 1)) for l = nvars: a key times this keeps the
    key in fields 1..l and puts the prefix sum P_i = e_1 + ... + e_i of its
    exponents in field l + i."""
    return 1 + (sum(1 << s for s in _shifts(nvars)) << (BITS * nvars))


def _check_exponents(keys, nvars):
    if fold(or_, keys, 0) & _guard(nvars):
        raise ResourceLimitError(f"an exponent reached 2^31, above the limit of {MAX_EXPONENT}")


def _pack(m):
    return sum(e << s for e, s in zip(m, _shifts(len(m))))


def _unpack(key, nvars):
    return tuple((key >> s) & MASK for s in _shifts(nvars))


def _key(m, nvars):
    """The packed key of the exponent tuple m; an InputError if m is no
    monomial in nvars variables."""
    m = tuple(require_int(e, "exponent") for e in m)
    if len(m) != nvars:
        raise InputError(f"monomial {m} does not have {nvars} exponents")
    if any(e < 0 for e in m):
        raise InputError(f"negative exponent in monomial {m}")
    if any(e > MAX_EXPONENT for e in m):
        raise InputError(f"exponent in monomial {m} is above the limit of {MAX_EXPONENT}")
    return _pack(m)


def _fraction(*args):
    """Fraction(*args); `fractions` is imported on first use, not at start-up."""
    from fractions import Fraction

    return Fraction(*args)


class Field(str):
    """A coefficient field that compares and hashes as its tag string.

    Elements are ints over F2.  Over Q an element is an int when it is
    integral and a Fraction otherwise; mixed int/Fraction arithmetic is
    exact, so a caller never needs to check the type.  Arithmetic may add
    and multiply raw elements and apply `norm` once at the end, which also
    turns an integral Fraction into an int; `clean` does that for a whole
    dict of terms and drops the zeros.
    """

    def coerce(self, value):
        """`value` as a field element in canonical form (over Q an int when
        it is integral, else a Fraction).  Only ints and Fractions are read:
        bools, floats and everything else are input errors, never rounded."""
        if type(value) is not int:
            from fractions import Fraction

            if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
                raise InputError(f"coefficient {value!r} must be an int or a Fraction")
        return self._element(value)

    def inverse(self, c):
        """1/c in canonical form; the int 1 or -1 is its own inverse."""
        if type(c) is int and (c == 1 or c == -1):
            return self._element(c)
        return self.coerce(_fraction(1, c))


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
    def clean(raw):
        return {m: 1 for m, r in raw.items() if r & 1}

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
        return value if type(value) is int else _Q.norm(_fraction(value))

    @staticmethod
    def norm(c):
        return c.numerator if c.denominator == 1 else c

    @staticmethod
    def clean(raw):
        return {m: r.numerator if r.denominator == 1 else r for m, r in raw.items() if r}

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
    """The Field named by `tag`: a Field itself, or the plain string "F2" or "Q"."""
    if isinstance(tag, Field):
        return tag
    try:
        return _FIELDS[tag]
    except (KeyError, TypeError):
        raise InputError(f"unknown field tag {tag!r}") from None


def monomial_key(m):
    """Sort key realizing graded lex order with T_l > ... > T_1."""
    return (sum(m), tuple(reversed(m)))


class _TermsView(Mapping):
    """Read-only view of a Poly's terms keyed by exponent tuples."""

    __slots__ = ("_terms", "_nvars")

    def __init__(self, terms, nvars):
        self._terms = terms
        self._nvars = nvars

    def __len__(self):
        return len(self._terms)

    def __iter__(self):
        nvars = self._nvars
        return (_unpack(m, nvars) for m in self._terms)

    def __getitem__(self, m):
        try:
            return self._terms[_key(m, self._nvars)]
        except (KeyError, TypeError, InputError):
            raise KeyError(m) from None

    def __repr__(self):
        return repr(dict(self.items()))


class Poly:
    """Immutable sparse polynomial in canonical form (no zero coefficients).

    The constructor validates every term and cleans the sums; arithmetic
    cleans its raw sums itself (`Field.clean`) and wraps them with
    `_trusted`.  `_terms` maps packed monomial keys to coefficients.
    """

    __slots__ = ("field", "nvars", "_terms")

    def __init__(self, field, nvars, terms=None):
        field = as_field(field)
        nvars = require_count(nvars, "variable count", MAX_GROUP_RANK)
        raw = {}
        items = terms.items() if isinstance(terms, dict) else (terms or ())
        for m, c in items:
            key = _key(m, nvars)
            raw[key] = raw.get(key, 0) + field.coerce(c)
        self._set(field, nvars, field.clean(raw))

    def _set(self, field, nvars, terms):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_terms", terms)

    @classmethod
    def _trusted(cls, field, nvars, terms):
        """Poly holding `terms` as given: valid packed monomials mapped to
        nonzero elements of `field` in canonical form.  A caller that holds
        raw sums cleans them first (`Field.clean`); so `reps.euler_poly`, whose
        running product is clean already, hands it to `reduce` and returns
        it without a second pass."""
        p = object.__new__(cls)
        p._set(field, nvars, terms)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def one(cls, field, nvars):
        return cls(field, nvars, {(0,) * require_count(nvars, "variable count", MAX_GROUP_RANK): 1})

    @classmethod
    def variable(cls, field, nvars, index):
        """The variable T_index (1-based)."""
        nvars = require_count(nvars, "variable count", MAX_GROUP_RANK)
        if not 1 <= require_int(index, "variable index") <= nvars:
            raise InputError(f"variable index {index} out of range 1..{nvars}")
        m = [0] * nvars
        m[index - 1] = 1
        return cls(field, nvars, {tuple(m): 1})

    @classmethod
    def _linear(cls, field, coeffs):
        """sum_j coeffs[j] * T_{j+1}, for coefficients that are canonical elements of `field`."""
        return cls._trusted(field, len(coeffs), {1 << s: c for s, c in zip(_shifts(len(coeffs)), coeffs) if c})

    # -- inspection ---------------------------------------------------------

    def is_zero(self):
        return not self._terms

    def terms(self):
        """Read-only mapping from exponent tuples to coefficients."""
        return _TermsView(self._terms, self.nvars)

    def term_count(self):
        return len(self._terms)

    def sorted_terms(self):
        nvars = self.nvars
        return sorted(
            ((_unpack(m, nvars), c) for m, c in self._terms.items()),
            key=lambda mc: monomial_key(mc[0]),
        )

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
        return Poly._trusted(self.field, self.nvars, self.field.clean(terms))

    def __neg__(self):
        return Poly._trusted(self.field, self.nvars, self.field.clean({m: -c for m, c in self._terms.items()}))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_same_ring(other)
        return _product(self, other)

    def __pow__(self, exponent):
        exponent = require_int(exponent, "polynomial power")
        if exponent < 0:
            raise InputError("negative polynomial powers are not defined here")
        if not exponent:
            return Poly.one(self.field, self.nvars)
        return power(self, exponent, lambda p: p)

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


def _times(a, b):
    """The product of two term dicts, packed keys to field elements, with
    its coefficients as raw sums; the kernel behind `*`."""
    terms = {}
    get = terms.get
    right = b.items()
    for m1, c1 in a.items():
        for m2, c2 in right:
            m = m1 + m2
            terms[m] = get(m, 0) + c1 * c2
    return terms


def _product(p, q):
    """p * q for two Polys of the same ring."""
    terms = _times(p._terms, q._terms)
    _check_exponents(terms, p.nvars)
    return Poly._trusted(p.field, p.nvars, p.field.clean(terms))


def power(p, exponent, step, mul=mul):
    """p ** exponent for an int exponent >= 1, by repeated squaring; any
    other exponent is an InputError.

    Every product `mul(a, b)` is passed through `step`, which may reduce it
    or check its size.  Squaring keeps a power of a linear form short over
    F2, where the square of a sum is the sum of the squares.
    """
    if require_int(exponent, "exponent") < 1:
        raise InputError(f"power needs an exponent of at least 1, got {exponent}")
    result = None
    while True:
        if exponent & 1:
            result = p if result is None else step(mul(result, p))
        exponent >>= 1
        if not exponent:
            return result
        p = step(mul(p, p))


class TriangularSystem:
    """Relations g_1..g_l with g_j monic (up to an invertible constant) in T_j.

    `TriangularSystem(gens)` validates that g_j involves only T_1..T_j, has
    T_j-degree d_j >= 1, and that the coefficient of T_j^{d_j} is a nonzero
    constant (1 over F2).  The division tail of g_j lists, for every other
    term c*m of g_j, the triple (m / T_j^{d_j}, T_j-shift, -c/lead) with the
    quotient packed like a `Poly` key (negative in the T_j field), so
    T_j^{d_j} * x rewrites to the sum of shifted x times these terms; `tails`
    holds them in order.  `powers` memoises the normal forms of high powers
    T_j^e by (j, e).  `reach_lift` adds 2^31 - d_j to every T_j field, so
    that the top bit of field j of `key + reach_lift` is set exactly when the
    key, with no guard bit set, reaches d_j in T_j.  So d_j is at most
    MAX_EXPONENT, as in any relation that is a `Poly`; a larger lead degree,
    which only `_deferred` can be given, raises ResourceLimitError, since
    2^31 - d_j would borrow from the next field.

    `drop` is the pair (lift, bits) of the system's one drop rule (see the
    module docstring): with `mult = _prefix_mult(l)`, a key m whose fields
    are below 2^32 lies in the ideal when `(m * mult + lift) & bits` is
    nonzero.
      - Graded, the prefix-degree rule: `mult` puts the degree P_i of a key
        in T_1..T_i in field l + i, `lift` adds 2^31 - 1 - S_i there and
        `bits` holds its top bit, for every lifted i (S_i < 2^31).  By the
        lemma the top bits mark only P_i > S_i at a lifted i.  The
        degrees of the generators' terms are read from the same prefix
        sums, so a term of degree 2^32 - l or more may read low and make
        the system count as not graded, which only changes the rule.
      - Not graded, the single-term rule: for every g_k with an empty tail,
        `lift` adds 2^31 - d_k to the T_k field and `bits` holds its top
        bit, so the top bits mark only a key that reaches d_k in some such
        T_k.

    Everything above except the tails follows from each d_j, whether the
    system is graded and, if it is not, which g_j are single terms.  A
    system made by `_deferred` has homogeneous relations and is given only
    each d_j and a function that builds g_j, whole or to a depth in
    T_1..T_{j-1}.  `gens`, `tails`, `relation_texts`, `==`, `hash` and
    `repr` build every relation whole.  A reduction whose heads reach d_j
    builds g_j only as deep as they can read it, by the argument in the
    module docstring (`_room`), and keeps that tail until a deeper request
    builds it again; `_depths` holds the depth of each kept tail, None when
    whole, and `_rooms` the field of the rule that measures a head's room
    (None where the level reads its relation whole).  A built relation that
    contradicts its degree or homogeneity raises RuntimeError.  A relation
    that is never read is never built; the normal form does not depend on
    it.
    """

    __slots__ = (
        "field", "nvars", "lead_degrees", "powers", "reach_lift", "drop", "_build", "_gens", "_tails", "_depths", "_rooms"
    )

    def __init__(self, gens):
        gens = tuple(gens)
        if not gens:
            raise InputError("a triangular system needs at least one generator")
        if not all(isinstance(g, Poly) for g in gens):
            raise InputError("generators must be Poly values")
        field = gens[0].field
        nvars = gens[0].nvars
        if len(gens) != nvars:
            raise InputError(
                f"need exactly one generator per variable, got {len(gens)} for {nvars} variables"
            )
        divided = []
        for j, g in enumerate(gens, start=1):
            if g.field != field or g.nvars != nvars:
                raise InputError("mismatched field or variable count among generators")
            divided.append(_divide(g, j))
        degrees, tails, totals = zip(*divided)
        graded = all(min(total, default=d) >= d for d, total in zip(degrees, totals))
        self._set(field, degrees, None if graded else [not tail for tail in tails], None)
        self._gens[:] = gens
        self._tails[:] = tails

    @classmethod
    def _deferred(cls, field, lead_degrees, build):
        """The graded system whose relation g_j is `build(j, None)`,
        homogeneous of degree d_j = `lead_degrees[j - 1]`, and for which
        `build(j, depth)` returns g_j's terms of degree at most `depth` in
        T_1..T_{j-1} (more terms do no harm).  Nothing is built here."""
        system = object.__new__(cls)
        system._set(field, lead_degrees, None, build)
        return system

    def _set(self, field, degrees, single_terms, build):
        """`single_terms` is None for a graded system, which takes the
        prefix-degree rule; otherwise it says which g_j are single terms."""
        nvars = len(degrees)
        half = 1 << (BITS - 1)
        high = BITS * nvars
        reach_lift = lift = bits = excess = 0
        rooms = []
        for j, (s, d) in enumerate(zip(_shifts(nvars), degrees)):
            if d > MAX_EXPONENT:
                raise ResourceLimitError(f"lead degree {d} is above the limit of {MAX_EXPONENT}")
            # excess is S_{j-1} here; `_room` reads a head's room at level j
            # off field l + j - 1 of the rule, exact where level j - 1 is lifted
            shallow = build is not None and j > 0 and excess < half
            rooms.append(high + s - BITS if shallow else None)
            reach_lift += (half - d) << s
            excess += d - 1
            if single_terms is None:
                if excess < half:
                    lift += (half - 1 - excess) << (high + s)
                    bits |= 1 << (high + s + BITS - 1)
            elif single_terms[j]:
                lift += (half - d) << s
                bits |= 1 << (s + BITS - 1)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "lead_degrees", tuple(degrees))
        object.__setattr__(self, "powers", {})
        object.__setattr__(self, "reach_lift", reach_lift)
        object.__setattr__(self, "drop", (lift, bits))
        object.__setattr__(self, "_build", build)
        object.__setattr__(self, "_gens", [None] * nvars)
        object.__setattr__(self, "_tails", [None] * nvars)
        object.__setattr__(self, "_depths", [None] * nvars)
        object.__setattr__(self, "_rooms", tuple(rooms))

    def __setattr__(self, name, value):
        raise AttributeError("TriangularSystem is immutable")

    def _tail(self, j, depth=None):
        """The division tail of g_j; given a depth, a tail that holds at least
        the terms of degree at most `depth` in T_1..T_{j-1}.

        A deferred g_j is built when no tail built so far holds that: to the
        depth, or whole for no depth or a depth of d_j or more, which no term
        of g_j exceeds.  Only a whole build is kept as the relation."""
        i = j - 1
        tail = self._tails[i]
        if self._gens[i] is None:
            if depth is not None and depth >= self.lead_degrees[i]:
                depth = None
            if tail is None or depth is None or depth > self._depths[i]:
                g = self._build(j, depth)
                d, tail, totals = _divide(g, j)
                if (g.field, g.nvars, d) != (self.field, self.nvars, self.lead_degrees[i]) or not totals <= {d}:
                    raise RuntimeError(f"relation {j} contradicts the degree or homogeneity stated for it")
                if depth is None:
                    self._gens[i] = g
                self._tails[i] = tail
                self._depths[i] = depth
        return tail

    def _complete(self):
        for j in range(1, self.nvars + 1):
            self._tail(j)

    @property
    def gens(self):
        self._complete()
        return tuple(self._gens)

    @property
    def tails(self):
        self._complete()
        return tuple(self._tails)

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


def _divide(g, j):
    """(d_j, tail, totals) for g as the j-th generator of a triangular system:
    its T_j-degree, its division tail, and the set of total degrees of the
    tail's terms; an InputError if g cannot be g_j."""
    if g.is_zero():
        raise InputError(f"generator {j} is zero")
    s = BITS * (j - 1)
    # the largest key has the largest T_j-degree, and any variable beyond
    # T_j or any other term of that T_j-degree makes it larger
    last = max(g._terms)
    if last >> (s + BITS):
        raise InputError(f"generator {j} involves a variable beyond T{j}")
    d = last >> s
    if d < 1:
        raise InputError(f"generator {j} has no T{j} term")
    top = d << s
    if last != top:
        raise InputError(f"leading T{j}-coefficient of generator {j} is not constant")
    field = g.field
    scale = -field.inverse(g._terms[top])
    ones = _prefix_mult(g.nvars) >> (BITS * g.nvars)
    tail = []
    totals = set()
    for m, c in g._terms.items():
        if m != top:
            tail.append((m - top, (m >> s) - d, field.norm(c * scale)))
            # the total degree of m is its prefix sum in field j
            totals.add((m * ones >> s) & MASK)
    return d, tuple(tail), totals


def _reduce_level(p, j, system):
    """Eliminate every T_j-power >= d_j from p by division against g_j, for a
    p in which some term reaches d_j.

    Each x * T_j^e with e >= FAR_FACTOR * d_j is first replaced by x times
    the normal form of T_j^e.  The rest is rewritten with the system's
    precomputed tail of g_j, one T_j-degree at a time from the top down:
    rewriting only adds lower degrees, so a coefficient is final when its
    degree is reached.  Rewriting can raise the degrees of T_1..T_{j-1},
    so each level's keys are checked for a set guard bit before they are
    rewritten, and the result's keys at the end.

    Every term of p, every far-power product and every rewritten term that
    lies in the ideal by the system's drop rule (`drop`) is dropped before
    any check sees it: since the system is a Groebner basis the normal form
    of the rest is the same.  The tail of g_j is read only as deep as the
    heads left after that can use it (`_room`), and not at all when none is
    left.
    """
    s = BITS * (j - 1)
    d = system.lead_degrees[j - 1]
    far = FAR_FACTOR * d
    clean = p.field.clean
    mult = _prefix_mult(p.nvars)
    lift, bits = system.drop
    levels = {}
    distant = []
    for m, c in p._terms.items():
        if (m * mult + lift) & bits:
            continue
        e = (m >> s) & MASK
        if e < far:
            levels.setdefault(e, {})[m] = c
        else:
            distant.append((m - (e << s), e, c))
    for x, e, c in distant:
        for mt, ct in _power_normal_form(system, j, e)._terms.items():
            mm = x + mt
            if (mm * mult + lift) & bits:
                continue
            level = levels.setdefault((mt >> s) & MASK, {})
            level[mm] = level.get(mm, 0) + c * ct
    reaching = [m for e, level in levels.items() if e >= d for m in level]
    tail = system._tail(j, _room(system, j, reaching)) if reaching else ()
    while levels and (top := max(levels)) >= d:
        heads = levels.pop(top)
        _check_exponents(heads, p.nvars)
        targets = [(mt, levels.setdefault(top + shift, {}), ct) for mt, shift, ct in tail]
        for m, c in clean(heads).items():
            for mt, level, ct in targets:
                mm = m + mt
                if (mm * mult + lift) & bits:
                    continue
                level[mm] = level.get(mm, 0) + c * ct
    terms = {}
    for level in levels.values():
        terms.update(level)
    _check_exponents(terms, p.nvars)
    return Poly._trusted(p.field, p.nvars, clean(terms))


def _room(system, j, heads):
    """How deep in T_1..T_{j-1} a reduction by g_j reads its tail for these
    heads, the terms that reach d_j: None for the whole tail.

    A head m rewrites to m - T_j^{d_j} + t for each tail term t, of degree
    P(m) + P(t) in T_1..T_{j-1}.  Above S_{j-1} the graded rule drops that
    term, so t is read only when P(t) <= S_{j-1} - P(m), the head's room,
    which is 2^31 - 1 minus field l + j - 1 of `m * mult + lift`: exact by
    the lemma of the module docstring, as `_set` gives level j a room only
    when level j - 1 is lifted, and the heads are keys of p, with no guard
    bit (a far product lands below d_j).  A kept term has P of at least its
    head's and at most S_{j-1} (one with a guard bit is refused when its
    level is checked), so the rooms of later heads are no larger.
    """
    shift = system._rooms[j - 1]
    if shift is None:
        return None
    lift, _ = system.drop
    mult = _prefix_mult(system.nvars)
    return MAX_EXPONENT - min((m * mult + lift) >> shift & MASK for m in heads)


def reduce(p, system):
    """Normal form of p modulo the system: every T_j-degree ends below d_j.

    Variables are cleared from the highest index down; clearing T_j can only
    introduce variables below T_j, so one sweep suffices.  A T_j-exponent e of
    at least FAR_FACTOR * d_j is cleared by squaring, in about log e products.
    """
    if not isinstance(p, Poly) or not isinstance(system, TriangularSystem):
        raise InputError("reduce takes a Poly and a TriangularSystem")
    if p.field != system.field or p.nvars != system.nvars:
        raise InputError("polynomial and system have mismatched field or variable count")
    return _normal_form(p, system, system.nvars)


def _normal_form(p, system, top):
    """Normal form of p modulo g_1..g_top, for p free of T_{top+1}..T_l.

    This is `reduce`'s sweep, with every T_j-exponent of at least
    FAR_FACTOR * d_j cleared through `_power_normal_form`.  One pass over the
    keys finds the highest level at or below `top` that some term reaches
    (`reach_lift`; no key of p has a guard bit), and only that level is
    reduced before the next pass looks below it; a level reads its relation
    only as deep as its heads can use (`_room`).  It calls no name that the
    benchmark traces (`reduce`, `*`, the `Poly` constructor), so squaring
    moves none of its counters; a relation it builds is built by the
    system's own function, which may.
    """
    lift = system.reach_lift
    while True:
        reach = fold(or_, map(lift.__add__, p._terms), 0) & _guard(top)
        if not reach:
            return p
        top = reach.bit_length() // BITS
        p = _reduce_level(p, top, system)
        top -= 1


def _power_normal_form(system, j, e):
    """Normal form of T_j^e modulo g_1..g_j by repeated squaring, memoised
    in `system.powers` per (j, e).

    Normal forms modulo a triangular system respect products (it is a
    Groebner basis: the leading monomials T_j^{d_j} are coprime), so the
    normal form of a product of normal forms is the normal form of the
    product.  Products go through the kernel `_product`, not the traced `*`.
    """
    nf = system.powers.get((j, e))
    if nf is None:
        def step(q):
            return _normal_form(q, system, j)

        # T_j is reduced first, so no product below reaches 2 d_j in T_j
        t = step(Poly._trusted(system.field, system.nvars, {1 << BITS * (j - 1): system.field.coerce(1)}))
        nf = system.powers[(j, e)] = power(t, e, step, _product)
    return nf


def _shallow(p, i, depth):
    """The terms of p of degree at most `depth` in T_1..T_i, for i >= 1 and a
    p whose keys have prefix sums below 2^32."""
    mult = _prefix_mult(p.nvars)
    shift = BITS * (p.nvars + i - 1)
    return Poly._trusted(p.field, p.nvars, {m: c for m, c in p._terms.items() if (m * mult >> shift) & MASK <= depth})


def quotient_basis(system):
    """Monomials prod T_j^{r_j} with 0 <= r_j < d_j, in graded-lex order."""
    ranges = [range(d) for d in system.lead_degrees]
    return sorted(product(*ranges), key=monomial_key)


# ---------------------------------------------------------------------------
# Text format: terms `c*T1^a*T2^b` joined by `+`
# ---------------------------------------------------------------------------

# ASCII digits only: on a str, \d would also match other scripts' digits
_NUM_RE = re.compile(r"-?\d+(?:/\d+)?\Z", re.ASCII)
_VAR_RE = re.compile(r"T(\d+)(?:\^(\d+))?\Z", re.ASCII)
# a factor whose `^` is not followed by ASCII digits, as the user wrote it:
# the sign of `T1^-1` would otherwise split the factor
_BAD_POWER_RE = re.compile(r"[^*+-]*\^(?![0-9])[+-]?[^*+-]*")


def format_poly(p):
    """Canonical text form: ascending graded-lex terms, `1` coefficients
    omitted over F2, rationals as num/den.  A coefficient with more digits
    than the interpreter prints is a resource limit."""
    if p.is_zero():
        return "0"
    parts = []
    try:
        for m, c in p.sorted_terms():
            vars_part = "*".join(f"T{i + 1}" if e == 1 else f"T{i + 1}^{e}" for i, e in enumerate(m) if e)
            parts.append(p.field.term_text(c, vars_part))
    except ValueError:
        raise ResourceLimitError(too_many_digits("a coefficient")) from None
    return "+".join(parts)


def parse_poly(text, field, nvars):
    """Parse the polynomial text format; whitespace and term order are free."""
    field = as_field(field)
    nvars = require_count(nvars, "variable count", MAX_GROUP_RANK)
    if not isinstance(text, str):
        raise InputError(f"polynomial text must be a string, got {text!r}")
    text = "".join(text.split())
    if bad := _BAD_POWER_RE.search(text):
        raise InputError(f"unrecognized factor {bad.group()!r}")
    terms = [term for term in text.replace("-", "+-").split("+") if term]
    if not terms:
        raise InputError("empty polynomial text")
    acc = {}
    for term in terms:
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
                    coeff *= field.coerce(_fraction(factor) if "/" in factor else int(factor))
                except ZeroDivisionError:
                    raise InputError(f"zero denominator in {factor!r}") from None
                except ValueError:
                    raise InputError(too_many_digits("a coefficient")) from None
                continue
            m = _VAR_RE.match(factor)
            if not m:
                raise InputError(f"unrecognized factor {factor!r}")
            try:
                idx, e = int(m.group(1)), int(m.group(2) or 1)
            except ValueError:
                raise InputError(too_many_digits("a variable index or exponent")) from None
            if not 1 <= idx <= nvars:
                raise InputError(f"variable T{idx} out of range for {nvars} variables")
            exps[idx - 1] += e
            if negate:
                coeff = -coeff
        mono = tuple(exps)
        acc[mono] = acc.get(mono, 0) + coeff
    return Poly(field, nvars, acc)
