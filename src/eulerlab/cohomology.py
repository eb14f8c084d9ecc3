"""Quotient-ring presentations, Euler-class nonvanishing, and flag-ring checks.

A presentation is the triangular system of block Euler classes attached to a
representation and a flag (`polyring.TriangularSystem`, which is the quotient
ring); deciding whether a class survives in the quotient is a normal-form
computation with the nonzero remainder as certificate.
"""

import random
import warnings
from math import comb, perm

from .errors import HypothesisError, InputError, ResourceLimitError, require_count, require_int
from .polyring import F2, Poly, TriangularSystem, _shallow, format_poly, reduce
from .report import FAIL, PASS, Report, checklist
from .reps import FlagE, RepE, _check_term_count, _euler_product, decompose, euler_poly


class QuotientClass:
    """A residue class carried by `poly`, its unique normal form modulo
    `presentation`.  Immutable, like `Poly`: assigning an attribute raises."""

    __slots__ = ("presentation", "poly")

    def __init__(self, presentation, poly):
        object.__setattr__(self, "presentation", presentation)
        object.__setattr__(self, "poly", poly)

    def __setattr__(self, name, value):
        raise AttributeError("QuotientClass is immutable")

    def is_zero(self):
        return self.poly.is_zero()

    def text(self):
        return format_poly(self.poly)


def presentation(U, flag):
    """Triangular presentation with relations g_j = e(U_j) in flag coordinates.

    The relations are the unreduced block products, since they are printed
    as they are.  Every block must be nonzero; a nonzero fixed part does not
    obstruct the construction and is ignored with a warning.

    What a reduction needs before it reads g_j is read off the blocks: g_j is
    a product of dim U_j linear forms, each with a nonzero T_j-coefficient, so
    its lead degree is d_j = dim U_j and it is homogeneous, so the system is
    graded.  g_j itself is built only when something reads it
    (`polyring.TriangularSystem`): whole by `euler_poly`, with its
    MAX_EULER_TERMS check, for the printed relations, and for a reduction
    only to the depth in T_1..T_{j-1} that its heads can read.  That build
    multiplies the same factors in the same order and drops the deeper terms
    of every partial product before the same term-count check; no factor
    lowers that degree, so what is left is exactly g_j's terms of at most
    that degree.  A relation nobody reads is never built.
    Normal forms are those of the system with every relation built: they
    depend only on the ideal and its leading terms T_j^{d_j}.
    """
    decomp = decompose(U, flag)
    if decomp.fixed_dim:
        warnings.warn(
            f"fixed part of dimension {decomp.fixed_dim} is ignored by the presentation",
            stacklevel=2,
        )
    blocks = decomp.blocks
    for i, block in enumerate(blocks, start=1):
        if block.dim == 0:
            raise HypothesisError(f"flag block {i} is empty (dim U_{i} = 0)")

    def build(j, depth):
        if depth is None:
            return euler_poly(blocks[j - 1], flag)
        return _euler_product(blocks[j - 1], flag, lambda p: _check_term_count(_shallow(p, j - 1, depth)))

    return TriangularSystem._deferred(flag.field, [block.dim for block in blocks], build)


def euler_nonvanishing(U, V, flag):
    """Whether e(V) survives in the quotient presented by U and the flag.

    Returns (nonzero, certificate); the certificate's normal form is the
    nonzero residue on success and zero otherwise.  e(V) is never built
    whole: `euler_poly` drops every term of a product that the degree rule
    marks as lying in the ideal as soon as it forms it, and reduces the rest
    as soon as a term of it reaches a lead degree.  So when dim V exceeds
    S_l = sum_j (d_j - 1), the product that completes e(V) loses every term
    and is never reduced.  The reduction builds a relation g_j only when a
    term that the degree rule keeps reaches d_j in T_j, and only as deep in
    T_1..T_{j-1} as such terms can read it.  On an admissible flag
    (dim V_i < dim U_i for every i) e(V) has T_l-degree dim V_l < d_l, and
    reducing by g_1..g_{l-1} never raises it, so the top relation g_l is not
    built unless the certificate's presentation is read.
    """
    if V.fixed_dim:
        raise HypothesisError(f"V must have zero fixed part (dim = {V.fixed_dim})")
    system = presentation(U, flag)
    cls = QuotientClass(system, euler_poly(V, flag, system))
    return (not cls.is_zero(), cls)


# ---------------------------------------------------------------------------
# Flag manifolds of subspace chains in R^n
# ---------------------------------------------------------------------------

MAX_RELATION_TERMS = 100_000
# Largest number of random tables verify_flag_ring checks.
MAX_FLAG_RING_SAMPLES = 10_000


def _check_relation_size(degree, k, what="a flag-ring relation"):
    """ResourceLimitError if the complete homogeneous sum of the given degree
    in k variables, which has comb(degree + k - 1, k - 1) terms, has more
    than MAX_RELATION_TERMS; `what` names the sum in the message."""
    count = comb(degree + k - 1, k - 1)
    if count > MAX_RELATION_TERMS:
        raise ResourceLimitError(
            f"{what} would have {count} terms, above the limit of {MAX_RELATION_TERMS}"
        )


def _exponent_vectors(k, degree):
    """Every k-tuple (k >= 1) of nonnegative ints summing to `degree`, the
    first entry descending: the order of `combinations_with_replacement`."""
    if k == 1:
        yield (degree,)
        return
    for first in range(degree, -1, -1):
        for rest in _exponent_vectors(k - 1, degree - first):
            yield (first, *rest)


def _homogeneous_sum(nvars, degree, indices):
    """Complete homogeneous sum of the given degree in the chosen variables (F2);
    nothing is built when `_check_relation_size` refuses it.  Each exponent
    vector is built directly, so a term costs nvars entries whatever the
    degree."""
    _check_relation_size(degree, len(indices))
    terms = {}
    for choice in _exponent_vectors(len(indices), degree):
        exponents = [0] * nvars
        for i, e in zip(indices, choice):
            exponents[i] = e
        terms[tuple(exponents)] = 1
    return Poly(F2, nvars, terms)


def _relation_degrees(n, l, bounds):
    """The degree of each flag-ring relation, after checking n, l and the
    bounds and every relation's term count; nothing is built."""
    n = require_int(n, "n")
    l = require_int(l, "l")
    if l < 1:
        raise InputError("need at least one flag step")
    if l > n:
        raise InputError(f"flag length l = {l} must not exceed n = {n}")
    if bounds is not None:
        bounds = [require_int(b, "bound") for b in bounds]
        if len(bounds) != l:
            raise InputError(f"need {l} bounds, got {len(bounds)}")
        for i, b in enumerate(bounds, start=1):
            if not i <= b <= n:
                raise InputError(f"bound n_{i} = {b} violates {i} <= n_{i} <= {n}")
        if any(bounds[i] > bounds[i + 1] for i in range(l - 1)):
            raise InputError("bounds must be nondecreasing")
    tops = []
    for i in range(1, l + 1):
        tops.append((bounds[i - 1] if bounds is not None else n) - i + 1)
        _check_relation_size(tops[-1], i)
    return tops


def flag_ring(n, l, bounds=None):
    """Mod-2 cohomology presentation of the manifold of l-step flags in R^n.

    The i-th relation is the complete homogeneous sum of degree n - i + 1 in
    t_1..t_i; with nested dimension bounds n_1 <= ... <= n_l the degree
    becomes n_i - i + 1.  Every relation's term count is checked against
    MAX_RELATION_TERMS before any relation is built.
    """
    tops = _relation_degrees(n, l, bounds)
    return TriangularSystem(
        _homogeneous_sum(l, top, list(range(i))) for i, top in enumerate(tops, start=1)
    )


def _random_bounded_table(rng, n, l):
    """Random table with zero fixed part and block dims q_i <= n - i (standard flag).

    q_i is uniform on 0..n-i, and block i's coset labels in turn draw a uniform
    share of what is left (the last takes the rest): O(2^l) draws for any n.
    """
    table = {}
    for i in range(1, l + 1):
        *coset, last = _coset_vectors(l, i)
        left = rng.randint(0, n - i)
        for c in coset:
            table[c] = m = rng.randint(0, left)
            left -= m
        table[last] = left
    return RepE(l, {c: m for c, m in table.items() if m})


def _coset_vectors(l, i):
    """Characters whose top coordinate index is exactly i (standard flag blocks)."""
    low = range(i - 1)
    return [tuple((bits >> j) & 1 for j in low) + (1,) + (0,) * (l - i) for bits in range(2 ** (i - 1))]


def require_verifiable(n, l):
    """Refuse, before anything is built, a flag ring too large for
    `verify_flag_ring`: item (a)'s largest sum, the class symmetrized from
    relation 1, has comb(n + l - 1, l - 1) terms."""
    _relation_degrees(n, l, None)
    _check_relation_size(n, l, "the symmetrized flag-ring class")


def verify_flag_ring(n, l, samples=25, seed=0, presentation=None):
    """Check the structural identities of the flag-ring presentation.

    Items: (a) each symmetrized relation in all l variables equals the stated
    combination of the presentation's relations; (b) the product of the
    t_i^(n-i) survives in the quotient; (c) the quotient dimension is
    n!/(n-l)!; (d) for random tables with block dims <= n - i the Euler class
    survives (skipped when samples = 0).  `presentation` is `flag_ring(n, l)`
    when the caller has built it already; it is built here otherwise.
    """
    samples = require_count(samples, "sample count", MAX_FLAG_RING_SAMPLES)
    seed = require_int(seed, "seed")
    require_verifiable(n, l)
    pres = flag_ring(n, l) if presentation is None else presentation
    items = []

    ok = True
    for i in range(1, l + 1):
        ebar = _homogeneous_sum(l, n - i + 1, list(range(l)))
        combo = pres.gens[i - 1]
        for j in range(i + 1, l + 1):
            a_ij = _homogeneous_sum(l, j - i, list(range(j - 1, l)))
            combo = combo + a_ij * pres.gens[j - 1]
        if ebar != combo:
            ok = False
    items.append(("symmetrized-relations-identity", ok))

    top = Poly.one(F2, l)
    for i in range(1, l + 1):
        top = top * Poly.variable(F2, l, i) ** (n - i)
    items.append(("top-class-nonzero", not reduce(top, pres).is_zero()))

    items.append(("quotient-dimension", pres.quotient_dimension == perm(n, l)))

    if samples:
        rng = random.Random(seed)
        flag = FlagE.standard(l)
        ok = True
        for _ in range(samples):
            Qtable = _random_bounded_table(rng, n, l)
            if Qtable.dim == 0:
                continue
            if euler_poly(Qtable, flag, pres).is_zero():
                ok = False
                break
        items.append((f"random-tables-euler-nonzero ({samples} samples)", ok))

    items = [(name, PASS if ok else FAIL) for name, ok in items]
    return Report([
        ("items", None, [{"name": name, "status": status} for name, status in items]),
        *((None, name, status) for name, status in items),
        ("passed", None, all(status == PASS for _, status in items)),
    ], checklist(items))
