"""Oracle tests for Euler classes reduced one linear factor at a time.

`euler_poly(V, flag, system)` reduces after every factor; the oracle is the
whole product reduced once, `reduce(euler_poly(V, flag), system)`.  Pairs are
built under a random flag from chosen flag coordinates, so block dims and
leading coefficients are known without calling the code under test.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eulerlab import linalg, reps
from eulerlab.cohomology import euler_nonvanishing, presentation
from eulerlab.errors import InputError
from eulerlab.polyring import F2, Q, reduce
from eulerlab.reps import FlagE, RationalFlag, RepE, RepT, decompose, euler_poly
from tests_support_random import complete_flags, vectors2

SETTINGS = settings(
    max_examples=80,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


@lru_cache(maxsize=None)
def _flags2(rank):
    return complete_flags(rank)


def _q_basis(rank):
    row = st.tuples(*[st.integers(-2, 2)] * rank)
    return st.lists(row, min_size=rank, max_size=rank).filter(
        lambda rows: linalg._rank(Q, rows, rank) == rank
    )


@st.composite
def _block_labels(draw, field, rank, i, count):
    """`count` flag coordinate vectors of block i: entry i nonzero, later entries zero."""
    nonzero = st.just(1) if field == F2 else st.sampled_from([-2, -1, 1, 2])
    low = st.integers(0, 1) if field == F2 else st.integers(-2, 2)
    return [
        tuple(draw(low) for _ in range(i)) + (draw(nonzero),) + (0,) * (rank - i - 1)
        for _ in range(count)
    ]


def _table(field, flag, coordinate_lists):
    """The table of the labels sum_k c_k T_k, one per coordinate vector, and
    the product of each label's top flag coordinate."""
    table, lead = {}, 1
    for i, coords in enumerate(coordinate_lists):
        for c in coords:
            char = tuple(sum(ck * t[e] for ck, t in zip(c, flag.dual_basis)) for e in range(flag.rank))
            if field == F2:
                char = tuple(x % 2 for x in char)
            table[char] = table.get(char, 0) + 1
            lead *= c[i]
    cls = RepE if field == F2 else RepT
    return cls(flag.rank, table), lead


@st.composite
def flagged_pairs(draw, field, max_rank, admissible=None):
    """(U, V, flag, dims of V's blocks, product of V's top coordinates, admissible)."""
    rank = draw(st.integers(1, max_rank))
    if field == F2:
        flag = draw(st.sampled_from(_flags2(rank)))
    else:
        flag = RationalFlag(rank, draw(_q_basis(rank)))
    if admissible is None:
        admissible = draw(st.booleans())
    u_dims = [draw(st.integers(1, 3)) for _ in range(rank)]
    v_dims = [draw(st.integers(0, d - 1 if admissible else d + 2)) for d in u_dims]
    U, _ = _table(field, flag, [draw(_block_labels(field, rank, i, d)) for i, d in enumerate(u_dims)])
    V, lead = _table(field, flag, [draw(_block_labels(field, rank, i, d)) for i, d in enumerate(v_dims)])
    admissible = all(v < u for u, v in zip(u_dims, v_dims))
    return U, V, flag, tuple(v_dims), lead, admissible


def _check_against_oracle(pair):
    U, V, flag, _, _, _ = pair
    system = presentation(U, flag)
    oracle = reduce(euler_poly(V, flag), system)
    assert euler_poly(V, flag, system) == oracle
    nonzero, cls = euler_nonvanishing(U, V, flag)
    assert cls.poly == oracle and nonzero == (not oracle.is_zero())


@SETTINGS
@given(flagged_pairs(F2, 4))
def test_factorwise_reduction_matches_reduce_once_f2(pair):
    _check_against_oracle(pair)


@SETTINGS
@given(flagged_pairs(Q, 3))
def test_factorwise_reduction_matches_reduce_once_torus(pair):
    _check_against_oracle(pair)


ORDER_SETTINGS = settings(SETTINGS, max_examples=200)


def _orders(data, pair):
    """V of the pair in a random order of its labels, and that table with its
    labels taken block by block, lowest block first, each block in the
    random order."""
    _, V, flag, _, _, _ = pair
    shuffled = type(V)(V.rank, dict(data.draw(st.permutations(V.items()))))
    blocks = decompose(shuffled, flag).blocks
    return shuffled, type(V)(V.rank, {c: m for block in blocks for c, m in block.items()})


@ORDER_SETTINGS
@given(st.sampled_from([(F2, 4), (Q, 3)]).flatmap(lambda fr: flagged_pairs(*fr)), st.data())
def test_certificate_is_the_same_in_every_order(pair, data):
    U, V, flag, _, _, _ = pair
    shuffled, _ = _orders(data, pair)
    assert euler_poly(shuffled, flag) == euler_poly(V, flag)
    assert euler_nonvanishing(U, shuffled, flag)[1].text() == euler_nonvanishing(U, V, flag)[1].text()


def test_a_shuffled_table_does_no_more_work_than_the_sorted_one(monkeypatch):
    # work is the number of terms passed to `reduce`, which `euler_poly`
    # calls after every product
    terms = Counter()

    def counting(p, system):
        terms["now"] += p.term_count()
        return reduce(p, system)

    monkeypatch.setattr(reps, "reduce", counting)

    def work(U, V, flag):
        terms["now"] = 0
        euler_nonvanishing(U, V, flag)
        return terms["now"]

    kinds = Counter()

    @ORDER_SETTINGS
    @given(st.sampled_from([(F2, 4), (Q, 3)]).flatmap(lambda fr: flagged_pairs(*fr)), st.data())
    def check(pair, data):
        U, _, flag, _, _, _ = pair
        shuffled, ordered = _orders(data, pair)
        assert work(U, shuffled, flag) <= work(U, ordered, flag)
        kinds["out of block order"] += shuffled.items() != ordered.items()

    check()
    assert kinds["out of block order"] >= 20, kinds


def _check_leading_monomial(pair):
    U, V, flag, v_dims, lead, admissible = pair
    assert admissible
    normal = euler_poly(V, flag, presentation(U, flag))
    # lex order with T_l most significant
    top = max(normal.terms(), key=lambda m: tuple(reversed(m)))
    assert top == v_dims
    assert normal.terms().get(top, 0) == (1 if flag.field == F2 else Fraction(lead))


@SETTINGS
@given(flagged_pairs(F2, 4, admissible=True))
def test_leading_monomial_lemma_f2(pair):
    _check_leading_monomial(pair)


@SETTINGS
@given(flagged_pairs(Q, 3, admissible=True))
def test_leading_monomial_lemma_torus(pair):
    _check_leading_monomial(pair)


# -- flag coordinates from the precomputed inverse ---------------------------------

@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_coordinates_match_solve2_for_every_label(rank):
    labels = vectors2(rank)
    for flag in _flags2(rank):
        for char in labels:
            assert flag._coordinates(char) == linalg.solve2(flag.dual_basis, char)


@SETTINGS
@given(st.integers(1, 4).flatmap(
    lambda r: st.tuples(_q_basis(r), st.lists(st.tuples(*[st.integers(-9, 9)] * r), min_size=1, max_size=8))
))
def test_coordinates_match_solveq(basis_and_labels):
    basis, labels = basis_and_labels
    flag = RationalFlag(len(basis), basis)
    for w in labels:
        coords = flag._coordinates(w)
        assert coords == linalg.solveq(flag.dual_basis, w)
        assert all(type(c) is (int if c.denominator == 1 else Fraction) for c in coords)


def test_euler_poly_rejects_mismatched_system():
    U = RepE(2, {(1, 0): 2, (0, 1): 2})
    system = presentation(U, FlagE.standard(2))
    for rep, flag in [
        (RepT(2, {(1, 0): 1}), RationalFlag.standard(2)),
        (RepE(1, {(1,): 1}), FlagE.standard(1)),
        (RepE(1, {}), FlagE.standard(1)),
    ]:
        with pytest.raises(InputError, match="mismatched field or variable count"):
            euler_poly(rep, flag, system)


def test_euler_poly_refusals_name_its_system():
    U = RepE(2, {(1, 0): 2, (0, 1): 2})
    flag = FlagE.standard(2)
    system = presentation(U, flag)
    for wrong in (list(system.gens), system.gens[0], "T1^2"):
        with pytest.raises(InputError) as refused:
            euler_poly(U, flag, wrong)
        assert str(refused.value) == "euler_poly takes a TriangularSystem or None as its system"
    with pytest.raises(InputError) as refused:
        euler_poly(RepE(1, {(1,): 1}), FlagE.standard(1), system)
    assert str(refused.value) == "flag and system have mismatched field or variable count"


def test_leading_coefficient_is_product_of_top_coordinates():
    # e(V) = (2 T1)(T1 - 3 T2) = 2 T1^2 - 6 T1 T2 in the standard flag, modulo T1^2 and T2^2
    U = RepT(2, {(1, 0): 2, (0, 1): 2})
    V = RepT(2, {(2, 0): 1, (1, -3): 1})
    flag = RationalFlag.standard(2)
    normal = euler_poly(V, flag, presentation(U, flag))
    assert normal.terms() == {(1, 1): -6}
