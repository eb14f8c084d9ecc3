"""Tests for quotient presentations, nonvanishing checks, and flag rings."""

import itertools
import random
import time
from math import comb, factorial

import pytest

from eulerlab.cohomology import (
    MAX_FLAG_RING_SAMPLES,
    MAX_RELATION_TERMS,
    _homogeneous_sum,
    euler_nonvanishing,
    flag_ring,
    presentation,
    verify_flag_ring,
)
from eulerlab.errors import HypothesisError, InputError, ResourceLimitError
from eulerlab.polyring import F2, Q, Poly, TriangularSystem, parse_poly, quotient_basis, reduce
from eulerlab.reps import FlagE, RationalFlag, RepE, RepT
from tests_support_random import complete_flags, span2

A, B, AB = (1, 0), (0, 1), (1, 1)


# -- presentations -----------------------------------------------------------------

def test_presentation_projective_space():
    # sign representation to the n-th power presents F2[T]/(T^n)
    pres = presentation(RepE(1, {(1,): 4}), FlagE.standard(1))
    assert pres.relation_texts() == ["T1^4"]
    assert pres.quotient_dimension == 4


def test_presentation_two_blocks():
    pres = presentation(RepE(2, {A: 1, B: 1, AB: 1}), FlagE(2, [A, B]))
    assert pres.relation_texts() == ["T1", "T1*T2+T2^2"]
    assert pres.lead_degrees == (1, 2)


def test_presentation_torus():
    pres = presentation(RepT(1, {(1,): 2}), RationalFlag.standard(1))
    assert pres.relation_texts() == ["1*T1^2"]
    assert pres.field == Q


def test_presentation_requires_nonempty_blocks():
    with pytest.raises(HypothesisError, match="block 2"):
        presentation(RepE(2, {A: 1}), FlagE.standard(2))


def test_presentation_warns_on_fixed_part():
    with pytest.warns(UserWarning, match="fixed part"):
        presentation(RepE(1, {(0,): 2, (1,): 3}), FlagE.standard(1))


# -- nonvanishing -------------------------------------------------------------------

def test_nonvanishing_classical():
    U = RepE(1, {(1,): 3})
    ok, cert = euler_nonvanishing(U, RepE(1, {(1,): 2}), FlagE.standard(1))
    assert ok and cert.text() == "T1^2"
    assert cert.presentation == presentation(U, FlagE.standard(1))
    assert isinstance(cert.presentation, TriangularSystem)
    ok, cert = euler_nonvanishing(U, RepE(1, {(1,): 3}), FlagE.standard(1))
    assert not ok and cert.is_zero()


def test_nonvanishing_regular_representation():
    chars = [A, B, AB]
    U = RepE(2, {c: 2 for c in chars})  # (R[E]/R)^2, block dims 2*2^(i-1)
    V = RepE(2, {c: 1 for c in chars})  # block dims 2^(i-1)
    for flag in complete_flags(2):
        ok, _ = euler_nonvanishing(U, V, flag)
        assert ok


def test_nonvanishing_requires_fixed_free_target():
    with pytest.raises(HypothesisError):
        euler_nonvanishing(RepE(1, {(1,): 3}), RepE(1, {(0,): 1}), FlagE.standard(1))


def test_lemma_euler_property_f2():
    rng = random.Random(77)
    for _ in range(60):
        rank = rng.randint(1, 3)
        flag = rng.choice(complete_flags(rank))
        U_table, V_table = {}, {}
        for i in range(1, rank + 1):
            coset = [c for c in _block_chars(flag, i)]
            u_i = rng.randint(2, 5)
            v_i = rng.randint(1, u_i - 1)
            for _ in range(u_i):
                c = rng.choice(coset)
                U_table[c] = U_table.get(c, 0) + 1
            for _ in range(v_i):
                c = rng.choice(coset)
                V_table[c] = V_table.get(c, 0) + 1
        ok, _ = euler_nonvanishing(RepE(rank, U_table), RepE(rank, V_table), flag)
        assert ok


def _block_chars(flag, i):
    span_prev = span2(flag.dual_basis[: i - 1], flag.rank)
    span_cur = span2(flag.dual_basis[:i], flag.rank)
    return sorted(span_cur - span_prev)


def test_lemma_euler_property_q():
    rng = random.Random(88)
    flags = [
        RationalFlag.standard(2),
        RationalFlag(2, [(1, 1), (0, 1)]),
        RationalFlag(2, [(2, 1), (1, 0)]),
    ]
    for _ in range(40):
        flag = rng.choice(flags)
        U_table, V_table = {}, {}
        for i in (1, 2):
            weights = _line_weights(flag, i, rng)
            u_i = rng.randint(2, 4)
            v_i = rng.randint(1, u_i - 1)
            for _ in range(u_i):
                w = rng.choice(weights)
                U_table[w] = U_table.get(w, 0) + 1
            for _ in range(v_i):
                w = rng.choice(weights)
                V_table[w] = V_table.get(w, 0) + 1
        ok, _ = euler_nonvanishing(RepT(2, U_table), RepT(2, V_table), flag)
        assert ok


def _line_weights(flag, i, rng):
    # integer weights with top flag index exactly i and entries bounded by 3
    from eulerlab import linalg

    out = []
    for x in range(-3, 4):
        for y in range(-3, 4):
            w = (x, y)
            if w == (0, 0):
                continue
            coords = linalg.solveq(flag.dual_basis, w)
            top = max(j for j, c in enumerate(coords) if c != 0)
            if top == i - 1:
                out.append(w)
    return out


def test_univariate_monotonicity_under_shrinking_target():
    # removing one character from V never flips nonvanishing to vanishing
    for u in range(2, 6):
        for v in range(1, u):
            U = RepE(1, {(1,): u})
            ok_v, _ = euler_nonvanishing(U, RepE(1, {(1,): v}), FlagE.standard(1))
            assert ok_v
            if v > 1:
                ok_smaller, _ = euler_nonvanishing(U, RepE(1, {(1,): v - 1}), FlagE.standard(1))
                assert ok_smaller


# -- hilbert series -----------------------------------------------------------------

def test_hilbert_series_matches_basis_counts():
    rng = random.Random(99)
    from tests_support_random import random_triangular  # local helper below

    for _ in range(30):
        nvars = rng.randint(1, 3)
        system = random_triangular(rng, rng.choice([F2, Q]), nvars, dmax=5)
        coeffs = system.hilbert_coefficients()
        basis = quotient_basis(system)
        counts = [0] * (max((sum(m) for m in basis), default=0) + 1)
        for m in basis:
            counts[sum(m)] += 1
        assert counts == coeffs


# -- flag rings ---------------------------------------------------------------------

def test_flag_ring_univariate():
    pres = flag_ring(4, 1)
    assert pres.relation_texts() == ["T1^4"]


def test_flag_ring_two_steps():
    pres = flag_ring(3, 2)
    assert pres.relation_texts() == ["T1^3", "T1^2+T1*T2+T2^2"]


def test_flag_ring_with_bounds():
    pres = flag_ring(3, 2, bounds=[1, 3])
    assert pres.relation_texts() == ["T1", "T1^2+T1*T2+T2^2"]


def test_flag_ring_bound_validation():
    with pytest.raises(InputError):
        flag_ring(3, 4)
    with pytest.raises(InputError):
        flag_ring(3, 2, bounds=[0, 3])
    with pytest.raises(InputError):
        flag_ring(3, 2, bounds=[3, 2])
    with pytest.raises(InputError):
        flag_ring(4, 2, bounds=[3])


def test_verify_flag_ring_small_cases():
    assert verify_flag_ring(3, 2, samples=30)["passed"]
    assert verify_flag_ring(2, 1, samples=10)["passed"]
    rep = verify_flag_ring(3, 3, samples=10)
    assert rep["passed"]
    assert flag_ring(3, 3).quotient_dimension == 6


def test_verify_flag_ring_random_tables_do_not_scale_with_n():
    # a table is drawn label by label, not one unit of block dimension at a time
    start = time.perf_counter()
    assert verify_flag_ring(10**6, 1, samples=1000)["passed"]
    assert time.perf_counter() - start < 5


def test_verify_flag_ring_sample_cap():
    with pytest.raises(ResourceLimitError, match="above the limit"):
        verify_flag_ring(3, 2, samples=MAX_FLAG_RING_SAMPLES + 1)


@pytest.mark.parametrize("nvars, indices", [(1, [0]), (3, [0, 1, 2]), (4, [1, 3]), (4, [0, 2, 3])])
@pytest.mark.parametrize("degree", [0, 1, 2, 5])
def test_homogeneous_sum_matches_brute_force(nvars, indices, degree):
    # every exponent vector of the given degree supported on the chosen variables
    expected = {
        m: 1
        for m in itertools.product(range(degree + 1), repeat=nvars)
        if sum(m) == degree and all(e == 0 for i, e in enumerate(m) if i not in indices)
    }
    h = _homogeneous_sum(nvars, degree, indices)
    assert h == Poly(F2, nvars, expected)
    assert h.term_count() == comb(degree + len(indices) - 1, len(indices) - 1)


def test_homogeneous_sum_refuses_before_building(monkeypatch):
    # comb(MAX_RELATION_TERMS + 1, 1) terms: refused without a Poly being built
    monkeypatch.setattr(Poly, "__init__", lambda *args: pytest.fail("built a relation"))
    with pytest.raises(ResourceLimitError, match="above the limit"):
        _homogeneous_sum(2, MAX_RELATION_TERMS, [0, 1])


def test_flag_ring_refuses_before_building_any_relation(monkeypatch):
    # relation i of the 12-step flags in R^40 has comb(40, i - 1) terms:
    # relations 1..5 fit the limit, the sixth does not
    assert comb(40, 4) <= MAX_RELATION_TERMS < comb(40, 5)
    monkeypatch.setattr(Poly, "__init__", lambda *args: pytest.fail("built a relation"))
    with pytest.raises(ResourceLimitError, match=f"would have {comb(40, 5)} terms"):
        flag_ring(40, 12)


def test_verify_flag_ring_refuses_the_symmetrized_class_before_building(monkeypatch):
    # every relation of the 5-step flags in R^40 fits the limit, but item (a)
    # symmetrizes relation 1 to degree 40 in 5 variables: comb(44, 4) terms
    assert max(comb(40, i) for i in range(5)) <= MAX_RELATION_TERMS < comb(44, 4)
    monkeypatch.setattr(Poly, "__init__", lambda *args: pytest.fail("built a polynomial"))
    message = f"^the symmetrized flag-ring class would have {comb(44, 4)} terms"
    with pytest.raises(ResourceLimitError, match=message):
        verify_flag_ring(40, 5, samples=0)


def test_symmetrized_relation_expansion_by_hand():
    # h_3(t1,t2) = t1^3 + t2 * h_2(t1,t2) over F2
    ebar = parse_poly("T1^3+T1^2*T2+T1*T2^2+T2^3", F2, 2)
    e1 = parse_poly("T1^3", F2, 2)
    e2 = parse_poly("T1^2+T1*T2+T2^2", F2, 2)
    assert ebar == e1 + parse_poly("T2", F2, 2) * e2


def test_flag_ring_quotient_dimension_formula():
    for n in range(2, 7):
        for l in range(1, n + 1):
            assert flag_ring(n, l).quotient_dimension == factorial(n) // factorial(n - l)


def test_flag_ring_basis_box():
    for n, l in [(3, 2), (4, 3), (5, 2)]:
        pres = flag_ring(n, l)
        basis = set(quotient_basis(pres))
        expected = set()

        def fill(i, acc):
            if i == l:
                expected.add(tuple(acc))
                return
            for r in range(n - (i + 1) + 1):
                fill(i + 1, acc + [r])

        fill(0, [])
        assert basis == expected


def test_flag_ring_normal_form():
    pres = flag_ring(3, 2)
    assert isinstance(pres, TriangularSystem)
    assert reduce(parse_poly("T1^2*T2", F2, 2), pres) == parse_poly("T1^2*T2", F2, 2)
    assert reduce(parse_poly("T1^3+T2^3", F2, 2), pres).is_zero()
