"""Composition laws between the answers of the bound calculators.

A law compares the answers for related inputs with one another, so it needs
no second implementation.  Adding a character raises each bound by the real
dimension it adds:

- free-zero-set: if (U, V) gets bound b, then (U + chi, V) gets b + 1 for
  every nontrivial character chi of (Z/2)^l;
- torus-interior: if (U, V) gets bound b, then (U + w, V) gets b + 2 for
  every nonzero weight w.

Each law is checked on derandomized random pairs, with a floor on the number
of applicable pairs.  A ResourceLimitError is not caught, so it fails the test.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eulerlab.bounds import bound_free_zero_set, bound_torus
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
