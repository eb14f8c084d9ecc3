"""Oracle tests for the element contract over Q.

A Q element is an int when it is integral and a Fraction otherwise.  The
reference is `REFERENCE_Q`, the same field with every element a Fraction:
polynomial arithmetic, reduction, the text format and the linear-algebra
kernels must give equal values and identical text under both, and every
coefficient or entry the int-or-Fraction field produces must be canonical.
"""

from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eulerlab import linalg
from eulerlab.polyring import Q, Poly, TriangularSystem, format_poly, parse_poly, reduce
from tests_support_random import REFERENCE_Q, is_canonical_q

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# many integral values, some of them written as Fractions with denominator 1
ELEMENTS = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3, 4])),
)
NONZERO = ELEMENTS.filter(bool)


def _monomials(nvars, top=3):
    return st.tuples(*[st.integers(0, top)] * nvars)


def _terms(nvars):
    return st.dictionaries(_monomials(nvars), ELEMENTS, max_size=6)


@st.composite
def _gens(draw, nvars):
    """Terms of a triangular system: g_j = lead * T_j^d plus terms in
    T_1..T_j of T_j-degree below d."""
    gens = []
    for j in range(nvars):
        d = draw(st.integers(1, 3))
        top = (0,) * j + (d,) + (0,) * (nvars - j - 1)
        tail = st.tuples(*[st.integers(0, 3)] * j, st.integers(0, d - 1)).map(
            lambda m: m + (0,) * (nvars - j - 1)
        )
        terms = draw(st.dictionaries(tail, ELEMENTS, max_size=4))
        terms[top] = draw(NONZERO)
        gens.append(terms)
    return gens


CASES = st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(n), _terms(n), _terms(n), NONZERO, st.integers(0, 4), _gens(n),
))


def _both(nvars, terms):
    return Poly(Q, nvars, terms), Poly(REFERENCE_Q, nvars, terms)


def _assert_same(got, ref):
    """Equal values, identical text, and canonical coefficients in `got`."""
    assert got.field is Q and ref.field is REFERENCE_Q
    assert got.sorted_terms() == ref.sorted_terms()
    assert format_poly(got) == format_poly(ref)
    assert all(is_canonical_q(c) for c in got.terms().values())
    assert all(type(c) is Fraction for c in ref.terms().values())


@SETTINGS
@given(CASES)
def test_poly_arithmetic_matches_the_fraction_field(case):
    nvars, p_terms, q_terms, c, e, gens = case
    p, p_ref = _both(nvars, p_terms)
    q, q_ref = _both(nvars, q_terms)
    _assert_same(p, p_ref)
    _assert_same(p + q, p_ref + q_ref)
    _assert_same(p - q, p_ref - q_ref)
    _assert_same(-p, -p_ref)
    _assert_same(p * q, p_ref * q_ref)
    _assert_same(p.scaled(c), p_ref.scaled(c))
    _assert_same(p ** e, p_ref ** e)
    text = format_poly(p_ref)
    _assert_same(parse_poly(text, Q, nvars), parse_poly(text, REFERENCE_Q, nvars))


@SETTINGS
@given(CASES)
def test_reduction_matches_the_fraction_field(case):
    nvars, p_terms, q_terms, _, e, gens = case
    system = TriangularSystem(Poly(Q, nvars, g) for g in gens)
    system_ref = TriangularSystem(Poly(REFERENCE_Q, nvars, g) for g in gens)
    assert system.tails == system_ref.tails
    assert all(is_canonical_q(c) for tail in system.tails for _, _, c in tail)
    p, p_ref = _both(nvars, p_terms)
    q, q_ref = _both(nvars, q_terms)
    _assert_same(reduce(p, system), reduce(p_ref, system_ref))
    _assert_same(reduce(p * q, system), reduce(p_ref * q_ref, system_ref))
    # a far power goes through the memoised normal forms of T_j^e
    far = (0,) * (nvars - 1) + (40 + e,)
    _assert_same(reduce(p * Poly(Q, nvars, {far: 1}), system),
                 reduce(p_ref * Poly(REFERENCE_Q, nvars, {far: 1}), system_ref))
    assert all(is_canonical_q(c) for nf in system.powers.values() for c in nf.terms().values())


MATRICES = st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(*[ELEMENTS] * n), max_size=5),
    st.tuples(*[ELEMENTS] * n),
    st.lists(ELEMENTS, min_size=5, max_size=5),
))


@SETTINGS
@given(MATRICES)
def test_linear_algebra_matches_the_fraction_field(case):
    n, rows, target, coeffs = case
    new = [tuple(map(Q.coerce, row)) for row in rows]
    ref = [tuple(map(REFERENCE_Q.coerce, row)) for row in rows]
    reduced, pivots = linalg._rref(Q, new, n)
    assert (reduced, pivots) == linalg._rref(REFERENCE_Q, ref, n)
    assert all(is_canonical_q(x) for row in reduced for x in row)
    # a random target, and one in the row span so that a solution exists
    spanned = tuple(sum(c * row[i] for c, row in zip(coeffs, rows)) for i in range(n))
    for t in (target, spanned):
        solution = linalg._solve(Q, new, tuple(map(Q.coerce, t)))
        assert solution == linalg._solve(REFERENCE_Q, ref, tuple(map(REFERENCE_Q.coerce, t)))
        assert solution is None or all(is_canonical_q(x) for x in solution)
    assert linalg._solve(Q, new, tuple(map(Q.coerce, spanned))) is not None


@SETTINGS
@given(NONZERO)
def test_inverse_is_canonical(c):
    inverse = Q.inverse(Q.coerce(c))
    assert is_canonical_q(inverse) and inverse == REFERENCE_Q.inverse(Fraction(c))
