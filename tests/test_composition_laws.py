"""Composition laws between the answers of the bound calculators.

A law compares the answers for related inputs with one another, so it needs
no second implementation.  Adding a character raises each bound by the real
dimension it adds:

- free-zero-set: if (U, V) gets bound b, then (U + chi, V) gets b + 1 for
  every nontrivial character chi of (Z/2)^l;
- torus-interior: if (U, V) gets bound b, then (U + w, V) gets b + 2 for
  every nonzero weight w.

A product of two applicable pairs gets the sum of their bounds: the pairs
over E_1 and E_2 (or T^a and T^b), with their characters extended by zero,
make a pair over E_1 x E_2 (or T^a x T^b).  A unimodular change of basis of
T^l leaves the torus-interior bound and its applicability unchanged.

Each law is checked on derandomized random pairs, with a floor on the number
of applicable pairs; a product stays within MAX_SUBGROUP_RANK.  A
ResourceLimitError is not caught, so it fails the test.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eulerlab.bounds import bound_free_zero_set, bound_torus
from eulerlab.flagsearch import MAX_SUBGROUP_RANK
from eulerlab.reps import RepE, RepT
from tests_support_random import vectors2

SETTINGS = settings(
    max_examples=400,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def f2_pair(rng, rank):
    """U with multiplicities 0-2 on every label, the trivial one included, and
    V with multiplicities 0-1 on the nontrivial labels."""
    labels = vectors2(rank)
    U = RepE(rank, {c: m for c in labels if (m := rng.randint(0, 2))})
    V = RepE(rank, {c: 1 for c in labels[1:] if rng.random() < 0.4})
    return U, V


def torus_pair(rng, rank):
    """Up to four weights with entries in -3..3 for U, multiplicities 1-2, and
    up to two for V, multiplicity 1; the trivial weight is left out."""

    def weights(count):
        drawn = {tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(count)}
        return [w for w in drawn if any(w)]

    U = RepT(rank, {w: rng.randint(1, 2) for w in weights(4)})
    V = RepT(rank, dict.fromkeys(weights(rng.randint(0, 2)), 1))
    return U, V


@pytest.mark.filterwarnings("ignore:fixed part of dimension")
def test_adding_a_character_raises_the_free_zero_set_bound_by_one():
    applicable = 0

    @SETTINGS
    @given(st.integers(1, 3), st.integers(0, 2**32))
    def check(rank, seed):
        nonlocal applicable
        U, V = f2_pair(random.Random(seed), rank)
        base = bound_free_zero_set(U, V)
        if base["bound"] is None:
            return
        applicable += 1
        for chi in vectors2(rank)[1:]:
            grown = bound_free_zero_set(U.direct_sum(RepE(rank, {chi: 1})), V)
            assert grown["bound"] == base["bound"] + 1, (U, V, chi)

    check()
    assert applicable >= 200, applicable


def test_adding_a_weight_raises_the_torus_interior_bound_by_two():
    applicable = 0

    @SETTINGS
    @given(st.integers(1, 2), st.integers(0, 2**32), st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
    def check(rank, seed, weight):
        nonlocal applicable
        U, V = torus_pair(random.Random(seed), rank)
        w = weight[:rank]
        if not any(w):
            return
        base = bound_torus(U, V)
        if base["bound"] is None:
            return
        applicable += 1
        grown = bound_torus(U.direct_sum(RepT(rank, {w: 1})), V)
        assert grown["bound"] == base["bound"] + 2, (U, V, w)

    check()
    assert applicable >= 200, applicable


def applicable_pair(rng, rank, draw, bound):
    """The first of up to 20 pairs from `draw` that `bound` applies to, with
    its bound; None if none of them is applicable."""
    for _ in range(20):
        U, V = draw(rng, rank)
        b = bound(U, V)["bound"]
        if b is not None:
            return U, V, b
    return None


def product(cls, first, second, rank1, rank2):
    """The table over the product group of rank rank1 + rank2 whose labels
    are first's extended by zero on the right and second's on the left."""
    table = {c + (0,) * rank2: m for c, m in first.items()}
    for c, m in second.items():
        c = (0,) * rank1 + c
        table[c] = table.get(c, 0) + m
    return cls(rank1 + rank2, table)


@pytest.mark.filterwarnings("ignore:fixed part of dimension")
def test_a_product_of_pairs_gets_the_sum_of_the_free_zero_set_bounds():
    applicable = 0

    @SETTINGS
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**32))
    def check(rank1, rank2, seed):
        nonlocal applicable
        assert rank1 + rank2 <= MAX_SUBGROUP_RANK
        rng = random.Random(seed)
        first = applicable_pair(rng, rank1, f2_pair, bound_free_zero_set)
        second = applicable_pair(rng, rank2, f2_pair, bound_free_zero_set)
        if first is None or second is None:
            return
        applicable += 1
        (U1, V1, b1), (U2, V2, b2) = first, second
        U, V = product(RepE, U1, U2, rank1, rank2), product(RepE, V1, V2, rank1, rank2)
        assert bound_free_zero_set(U, V)["bound"] == b1 + b2, (U1, V1, U2, V2)

    check()
    assert applicable >= 200, applicable


def test_a_product_of_pairs_gets_the_sum_of_the_torus_interior_bounds():
    applicable = 0

    @SETTINGS
    @given(st.integers(1, 2), st.integers(1, 2), st.integers(0, 2**32))
    def check(rank1, rank2, seed):
        nonlocal applicable
        rng = random.Random(seed)
        first = applicable_pair(rng, rank1, torus_pair, bound_torus)
        second = applicable_pair(rng, rank2, torus_pair, bound_torus)
        if first is None or second is None:
            return
        applicable += 1
        (U1, V1, b1), (U2, V2, b2) = first, second
        U, V = product(RepT, U1, U2, rank1, rank2), product(RepT, V1, V2, rank1, rank2)
        assert bound_torus(U, V)["bound"] == b1 + b2, (U1, V1, U2, V2)

    check()
    assert applicable >= 200, applicable


def unimodular(rng, rank):
    """A random matrix of determinant +-1: the identity after row swaps,
    sign changes and row additions with multipliers in -2..2."""
    rows = [[int(i == j) for j in range(rank)] for i in range(rank)]
    for _ in range(3 * rank):
        i, j = rng.sample(range(rank), 2)
        move = rng.randrange(3)
        if move == 0:
            rows[i], rows[j] = rows[j], rows[i]
        elif move == 1:
            rows[i] = [-x for x in rows[i]]
        else:
            k = rng.choice([-2, -1, 1, 2])
            rows[i] = [x + k * y for x, y in zip(rows[i], rows[j])]
    return rows


def relabel(rep, matrix):
    """The table with every weight w replaced by the row vector w * matrix."""
    columns = list(zip(*matrix))
    return RepT(rep.rank, {tuple(sum(a * b for a, b in zip(w, col)) for col in columns): m for w, m in rep.items()})


def test_a_unimodular_relabeling_keeps_the_torus_interior_bound():
    applicable = 0

    @SETTINGS
    @given(st.integers(2, 3), st.integers(0, 2**32))
    def check(rank, seed):
        nonlocal applicable
        rng = random.Random(seed)
        U, V = torus_pair(rng, rank)
        matrix = unimodular(rng, rank)
        base = bound_torus(U, V)["bound"]
        assert bound_torus(relabel(U, matrix), relabel(V, matrix))["bound"] == base, (U, V, matrix)
        applicable += base is not None

    check()
    assert applicable >= 200, applicable
