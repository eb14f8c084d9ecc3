"""Oracle tests for the packed monomial keys inside `polyring`.

A `Poly` stores each monomial as one int with a 32-bit field per variable.
The reference here is the tuple-keyed multiply and reduction the package
used before: exponent tuples added entry by entry, and division tails built
from the generators' tuple terms (the reduction is shared with other tests
through `tests_support_random`).  Random F2 and Q polynomials in 1-6
variables must give the same terms both ways, and every path that could
produce an exponent of 2^31 or more must raise instead of wrapping into the
next variable's field, unless the drop rule shows that the key lies in the
ideal: then it is dropped and the answer is exact.
"""

import io
import json
import random
from fractions import Fraction
from operator import add

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eulerlab import cohomology
from eulerlab.cli import run
from eulerlab.errors import InputError, ResourceLimitError
from eulerlab.polyring import (
    F2,
    MAX_EXPONENT,
    Q,
    Poly,
    TriangularSystem,
    parse_poly,
    power,
    reduce,
)
from eulerlab.reps import FlagE, RepE, euler_poly
from tests_support_random import reference_reduce_in_variable

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# -- the tuple-keyed reference ------------------------------------------------------

def reference_mul(field, a, b):
    """Product of two tuple-keyed term dicts, zero coefficients dropped."""
    terms = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(map(add, m1, m2))
            terms[m] = terms.get(m, 0) + c1 * c2
    return {m: c for m, r in terms.items() if (c := field.norm(r))}


# -- strategies -----------------------------------------------------------------

FIELDS = st.sampled_from([F2, Q])


def coefficients(field):
    if field == F2:
        return st.integers(0, 1)
    return st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


def term_dicts(field, nvars, exponents):
    return st.dictionaries(
        st.tuples(*[exponents] * nvars), coefficients(field), max_size=8
    )


SMALL = st.integers(0, 5)
# near the limit, so that products cross 2^31 and reach 2^32
LARGE = st.one_of(st.integers(0, 3), st.integers(2**30 - 2, MAX_EXPONENT))


@st.composite
def poly_pairs(draw, exponents):
    field = draw(FIELDS)
    nvars = draw(st.integers(1, 6))
    a = Poly(field, nvars, draw(term_dicts(field, nvars, exponents)))
    b = Poly(field, nvars, draw(term_dicts(field, nvars, exponents)))
    return a, b


@SETTINGS
@given(poly_pairs(SMALL))
def test_mul_matches_tuple_reference(pair):
    a, b = pair
    assert (a * b).terms() == reference_mul(a.field, a.terms(), b.terms())


@SETTINGS
@given(poly_pairs(LARGE))
def test_mul_near_the_limit_matches_or_refuses(pair):
    a, b = pair
    expected = reference_mul(a.field, a.terms(), b.terms())
    if any(e > MAX_EXPONENT for m in expected for e in m):
        with pytest.raises(ResourceLimitError, match="above the limit of 2147483647"):
            a * b
    else:
        assert (a * b).terms() == expected


def sparse_triangular(rng, field, nvars):
    """g_j = lead * T_j^d plus up to two lower terms, T_1..T_{j-1} of degree <= 1,
    so that normal forms in six variables stay small."""
    gens = []
    for j in range(1, nvars + 1):
        d = rng.randint(1, 3)
        lead = 1 if field == F2 else Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
        terms = {tuple(d if i == j - 1 else 0 for i in range(nvars)): lead}
        for _ in range(rng.randint(0, 2)):
            m = tuple(
                rng.randint(0, 1) if i < j - 1 else rng.randint(0, d - 1) if i == j - 1 else 0
                for i in range(nvars)
            )
            terms[m] = 1 if field == F2 else Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        gens.append(Poly(field, nvars, terms))
    return TriangularSystem(gens)


@SETTINGS
@given(FIELDS, st.integers(1, 6), st.integers(0, 2**32), st.data())
def test_reduce_matches_tuple_reference(field, nvars, seed, data):
    system = sparse_triangular(random.Random(seed), field, nvars)
    p = Poly(field, nvars, data.draw(term_dicts(field, nvars, st.integers(0, 6))))
    r = p
    for j in range(nvars, 0, -1):
        r = Poly(field, nvars, reference_reduce_in_variable(field, dict(r.terms()), j, system))
    assert reduce(p, system) == r


# -- the exponent limit ------------------------------------------------------------

def test_largest_exponent_is_accepted():
    p = Poly(F2, 2, {(MAX_EXPONENT, 0): 1})
    assert max(m[0] for m in p.terms()) == MAX_EXPONENT and max(m[1] for m in p.terms()) == 0
    assert parse_poly("T2^2147483647", F2, 2).terms() == {(0, MAX_EXPONENT): 1}
    assert p.terms().get((MAX_EXPONENT, 0), 0) == 1


@pytest.mark.parametrize("make", [
    lambda: Poly(F2, 2, {(2**31, 0): 1}),
    lambda: Poly(Q, 1, {(2**40,): 1}),
    lambda: parse_poly("T1^2147483648", F2, 1),
    lambda: parse_poly("T1^2147483647*T1", Q, 2),
])
def test_exponent_above_the_limit_is_an_input_error(make):
    with pytest.raises(InputError, match="above the limit of 2147483647"):
        make()


@pytest.mark.parametrize("make", [
    lambda: Poly.variable(F2, 1, 1) ** 2**31,
    lambda: Poly.variable(Q, 3, 2) ** 2**31,
    lambda: Poly(F2, 2, {(0, MAX_EXPONENT): 1}) * Poly.variable(F2, 2, 2),
    lambda: power(parse_poly("T1+T2", F2, 2), 2**32, lambda p: p),
])
def test_product_or_power_above_the_limit_raises(make):
    with pytest.raises(ResourceLimitError, match="above the limit of 2147483647"):
        make()


# A graded system with S_1 = 2^31 - 2, so level 1 is lifted.  Rewriting by
# g_2 = T2^2 + T1^(2^30) takes T2^4 to T2^2*T1^(2^30) and then to T1^(2^31), a
# multiple of g_1 = T1^(2^31 - 1): it lies in the ideal, and P_1 = 2^31 > S_1
# marks it although its T1 field has its guard bit set, so it is dropped
# before any exponent check sees it.  T2^8 and T2^9 form only such keys.
GUARD_GENS = ["T1^2147483647", "T2^2+T1^1073741824"]


@pytest.mark.parametrize("text, expected", [("T2^4", "0"), ("T2^8", "0"), ("T2^9+T1", "T1")])
def test_a_marked_key_past_the_limit_is_dropped(text, expected):
    # T2^4 = T1^(2^31) in the quotient, a multiple of T1^(2^31 - 1)
    system = TriangularSystem([parse_poly(g, F2, 2) for g in GUARD_GENS])
    assert reduce(parse_poly(text, F2, 2), system) == parse_poly(expected, F2, 2)
    assert reduce(parse_poly("T2^3", F2, 2), system) == parse_poly("T1^1073741824*T2", F2, 2)


def test_a_marked_key_past_the_limit_exits_zero():
    # T2^8 = T1^(2^32) in the quotient: the rule drops T1^(2^31) on the way
    argv = ["reduce", "--field", "F2", "--nvars", "2", "--poly", "T2^8"]
    for g in GUARD_GENS:
        argv += ["--gen", g]
    out, err = io.StringIO(), io.StringIO()
    assert run(argv, out, err) == 0 and err.getvalue() == ""
    assert "normal form: 0" in out.getvalue()


# Graded, with S_1 = 2^31 - 2 lifted and S_2 = 2^32 - 4 not.  Rewriting by
# g_3 takes T3^4 to T2^(2^31): P_1 = 0 is within S_1 and level 2 is not read,
# so no test marks the key, and the exponent check refuses it.
KEPT_GENS = ["T1^2147483647", "T2^2147483647+T1^2147483647", "T3^2+T2^1073741824"]


def test_a_kept_key_past_the_limit_is_refused():
    system = TriangularSystem([parse_poly(g, F2, 3) for g in KEPT_GENS])
    with pytest.raises(ResourceLimitError, match=r"an exponent reached 2\^31, above the limit of 2147483647"):
        reduce(parse_poly("T3^4", F2, 3), system)
    assert reduce(parse_poly("T3^3", F2, 3), system) == parse_poly("T2^1073741824*T3", F2, 3)


def test_a_kept_key_past_the_limit_exits_two():
    argv = ["reduce", "--field", "F2", "--nvars", "3", "--poly", "T3^4"]
    for g in KEPT_GENS:
        argv += ["--gen", g]
    out, err = io.StringIO(), io.StringIO()
    assert run(argv, out, err) == 2 and out.getvalue() == ""
    assert "an exponent reached 2^31, above the limit of 2147483647" in err.getvalue()


# U = (2^30 + 1)*(1) presents T1^(2^30 + 1) = 0, so S_1 = 2^30.  Squaring T1 on
# the way to e(V) = T1^(3*2^30) forms T1^(2^31), which P_1 = 2^31 > S_1 marks
# and drops before its guard bit is checked: e(V) = 0 in the quotient.
EULER_DOC = {
    "group": {"kind": "elem_abelian_2", "rank": 1},
    "module": {"entries": [{"char": [1], "mult": 2**30 + 1}]},
    "target": {"entries": [{"char": [1], "mult": 3 * 2**30}]},
    "flag": {"dual_basis": [[1]]},
}


def test_euler_class_with_a_marked_square_past_the_limit_vanishes():
    U, V = RepE(1, {(1,): 2**30 + 1}), RepE(1, {(1,): 3 * 2**30})
    nonzero, certificate = cohomology.euler_nonvanishing(U, V, FlagE(1, [[1]]))
    assert (nonzero, certificate.text()) == (False, "0")
    out, err = io.StringIO(), io.StringIO()
    assert run(["euler-check", "--inline", json.dumps(EULER_DOC)], out, err) == 0 and err.getvalue() == ""
    assert "nonvanishing: no" in out.getvalue() and "certificate: 0" in out.getvalue()


def test_unreduced_euler_class_above_the_limit_raises():
    with pytest.raises(ResourceLimitError, match="above the limit of 2147483647"):
        euler_poly(RepE(4, {(1, 1, 1, 1): 2**31}), FlagE.standard(4))


def test_reduced_euler_class_of_a_huge_multiplicity():
    # the U of test_euler_poly_squares_high_multiplicity_labels: T1 = T2 = T3 = 0
    # and T4^512 = 0 in the quotient, so every power on the way stays reduced
    flag = FlagE.standard(4)
    U = RepE(4, {(1, 0, 0, 0): 1, (0, 1, 0, 0): 1, (0, 0, 1, 0): 1, (1, 1, 1, 1): 512})
    system = cohomology.presentation(U, flag)
    assert euler_poly(RepE(4, {(1, 1, 1, 1): 2**40}), flag, system).is_zero()
    assert euler_poly(RepE(4, {(1, 1, 1, 1): 2**8 + 2**40}), flag, system).is_zero()
    assert euler_poly(RepE(4, {(1, 1, 1, 1): 511}), flag, system) == parse_poly("T4^511", F2, 4)


# -- triangular systems in packed form ------------------------------------------------

@pytest.mark.parametrize("gens, message", [
    (["T1^2", "T2+T3", "T3"], "generator 2 involves a variable beyond T2"),
    (["T1^2", "T1", "T3"], "generator 2 has no T2 term"),
    (["T1^2", "T1*T2^2+T2", "T3"], "leading T2-coefficient of generator 2 is not constant"),
    ([], "a triangular system needs at least one generator"),
    (["T1^2", "T2^2"], "need exactly one generator per variable, got 2 for 3 variables"),
])
def test_triangular_system_validation(gens, message):
    with pytest.raises(InputError, match=message):
        TriangularSystem([parse_poly(g, Q, 3) for g in gens])


def test_triangular_system_tails_with_a_wide_lower_exponent():
    # the tail of g_2 subtracts T2^3 from the key and adds T1^(2^31 - 1)
    system = TriangularSystem([parse_poly(g, Q, 2) for g in ["T1^2147483647+1", "2*T2^3-T1^2147483646"]])
    p = parse_poly("T2^3", Q, 2)
    # T1^2147483646 is below d_1, so reduce stops after clearing T2
    assert reduce(p, system) == parse_poly("1/2*T1^2147483646", Q, 2)
    assert reduce(parse_poly("T1*T2^3", Q, 2), system) == parse_poly("-1/2", Q, 2)


# -- the terms() view -------------------------------------------------------------------

def test_terms_view():
    p = parse_poly("3*T1^2*T3+T2-1/2", Q, 3)
    terms = p.terms()
    assert len(terms) == 3
    assert terms == {(2, 0, 1): 3, (0, 1, 0): 1, (0, 0, 0): Fraction(-1, 2)}
    assert {(2, 0, 1): 3, (0, 1, 0): 1, (0, 0, 0): Fraction(-1, 2)} == terms
    assert terms != {(2, 0, 1): 3}
    assert sorted(terms) == [(0, 0, 0), (0, 1, 0), (2, 0, 1)]
    assert terms[(2, 0, 1)] == 3 and terms[[0, 1, 0]] == 1
    assert (0, 1, 0) in terms and (0, 2, 0) not in terms and (0, 1) not in terms
    for missing in [(0, 2, 0), (0, 1), (0, -1, 0), ("0", 1, 0), 5]:
        with pytest.raises(KeyError):
            terms[missing]
    with pytest.raises(TypeError):
        terms[(0, 1, 0)] = 2
    assert p.terms() == terms and len(Poly(F2, 4).terms()) == 0
    assert dict(terms) == {(2, 0, 1): 3, (0, 1, 0): 1, (0, 0, 0): Fraction(-1, 2)}
