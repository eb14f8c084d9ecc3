"""Quotient-ring presentations, Euler-class nonvanishing, and flag-ring checks.

A presentation is the triangular system of block Euler classes attached to a
representation and a flag (`polyring.TriangularSystem`, which is the quotient
ring); deciding whether a class survives in the quotient is a normal-form
computation with the nonzero remainder as certificate.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb, perm

from .errors import HypothesisError, InputError, ResourceLimitError, require_count, require_int
from .polyring import F2, Poly, TriangularSystem, format_poly, reduce
from .reps import FlagE, RepE, decompose, euler_poly


@dataclass(frozen=True)
class QuotientClass:
    """A residue class carried by its unique normal form modulo `presentation`."""

    presentation: TriangularSystem
    poly: Poly

    def is_zero(self):
        return self.poly.is_zero()

    def text(self):
        return format_poly(self.poly)


def presentation(U, flag):
    """Triangular presentation with relations g_j = e(U_j) in flag coordinates.

    The relations are the unreduced block products, since they are printed
    as they are.  Every block must be nonzero; a nonzero fixed part does not
    obstruct the construction and is ignored with a warning.
    """
    decomp = decompose(U, flag)
    if decomp.fixed_dim:
        warnings.warn(
            f"fixed part of dimension {decomp.fixed_dim} is ignored by the presentation",
            stacklevel=2,
        )
    for i, block in enumerate(decomp.blocks, start=1):
        if block.dim == 0:
            raise HypothesisError(f"flag block {i} is empty (dim U_{i} = 0)")
    return TriangularSystem(euler_poly(block, flag) for block in decomp.blocks)


def euler_nonvanishing(U, V, flag):
    """Whether e(V) survives in the quotient presented by U and the flag.

    Returns (nonzero, certificate); the certificate's normal form is the
    nonzero residue on success and zero otherwise.  e(V) is never built
    whole: `euler_poly` reduces after every linear factor.
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


def _homogeneous_sum(nvars, degree, indices):
    """Complete homogeneous sum of the given degree in the chosen variables (F2);
    nothing is built when `_check_relation_size` refuses it."""
    _check_relation_size(degree, len(indices))
    terms = {}
    for choice in combinations_with_replacement(indices, degree):
        exponents = [0] * nvars
        for i in choice:
            exponents[i] += 1
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
    tops = [(bounds[i - 1] if bounds is not None else n) - i + 1 for i in range(1, l + 1)]
    for i, top in enumerate(tops, start=1):
        _check_relation_size(top, i)
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


@dataclass
class VerificationReport:
    """Line-oriented pass/fail items plus a machine-readable mirror."""

    items: list

    @property
    def passed(self):
        return all(ok for _, ok in self.items)

    @property
    def failure(self):
        """None when every item passes, else the hypothesis-failure line naming the failed items."""
        if self.passed:
            return None
        return "hypothesis failure: " + "; ".join(name for name, ok in self.items if not ok)

    def to_text(self):
        return "\n".join(f"{name}: {'pass' if ok else 'fail'}" for name, ok in self.items)

    def to_doc(self):
        return {
            "items": [{"name": name, "status": "pass" if ok else "fail"} for name, ok in self.items],
            "passed": self.passed,
        }


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


def verify_flag_ring(n, l, samples=25, seed=0):
    """Check the structural identities of the flag-ring presentation.

    Items: (a) each symmetrized relation in all l variables equals the stated
    combination of the presentation's relations; (b) the product of the
    t_i^(n-i) survives in the quotient; (c) the quotient dimension is
    n!/(n-l)!; (d) for random tables with block dims <= n - i the Euler class
    survives (skipped when samples = 0).
    """
    samples = require_count(samples, "sample count", MAX_FLAG_RING_SAMPLES)
    seed = require_int(seed, "seed")
    # item (a)'s largest sum, the class symmetrized from relation 1, is
    # refused before the presentation is built
    _relation_degrees(n, l, None)
    _check_relation_size(n, l, "the symmetrized flag-ring class")
    pres = flag_ring(n, l)
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

    return VerificationReport(items=items)
