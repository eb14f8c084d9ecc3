"""Tests for exact polynomial arithmetic and triangular normal forms."""

import random
from fractions import Fraction

import pytest

from eulerlab.errors import InputError
from eulerlab.polyring import (
    F2,
    Q,
    Poly,
    TriangularSystem,
    format_poly,
    monomial_key,
    parse_poly,
    quotient_basis,
    reduce,
)
from tests_support_random import reference_reduce_in_variable


def P(text, field=F2, nvars=None):
    if nvars is None:
        nvars = 1 + max((int(t[1:]) for t in text.replace("^", " ").replace("*", " ").split() if t.startswith("T")), default=1) - 1
    return parse_poly(text, field, nvars)


def random_poly(rng, field, nvars, max_deg=4, max_terms=6):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        m = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        if field == F2:
            terms[m] = 1
        else:
            num = rng.randint(-6, 6)
            den = rng.randint(1, 6)
            terms[m] = terms.get(m, Fraction(0)) + Fraction(num, den)
    return Poly(field, nvars, terms)


def degree_in(p, j):
    """Degree of p in T_j (1-based); -1 for the zero polynomial."""
    return max((m[j - 1] for m in p.terms()), default=-1)


from tests_support_random import random_triangular  # noqa: E402


# -- arithmetic ---------------------------------------------------------------

def test_frobenius_square_over_f2():
    p = parse_poly("T1+T2", F2, 2)
    assert p * p == parse_poly("T1^2+T2^2", F2, 2)


def test_multiplication_by_one_is_identity():
    p = parse_poly("T1^2+T1*T2+T2^2", F2, 2)
    assert p * Poly.one(F2, 2) == p


def test_hand_expanded_product():
    p = parse_poly("T1^2+T1*T2+T2^2", F2, 2)
    q = parse_poly("T2", F2, 2)
    assert p * q == parse_poly("T1^2*T2+T1*T2^2+T2^3", F2, 2)


def test_mismatched_rings_rejected():
    p = parse_poly("T1", F2, 1)
    q = parse_poly("T1", F2, 2)
    with pytest.raises(InputError):
        p + q
    with pytest.raises(InputError):
        p * parse_poly("T1", Q, 1)


@pytest.mark.parametrize(
    "field, nvars, terms",
    [
        (F2, 1, {(1,): 0.5}),
        (F2, 1, {(1,): Fraction(1, 2)}),
        (Q, 1, {(1,): 0.1}),
        (F2, 1, {(1,): True}),
        (Q, 1, {(1,): "1"}),
        (F2, 1.7, {(1,): 1}),
        (Q, True, {(1,): 1}),
        (F2, 1, {(1.9,): 1}),
        (Q, 1, {(True,): 1}),
        ("R", 1, {(1,): 1}),
    ],
)
def test_constructor_rejects_inexact_input(field, nvars, terms):
    with pytest.raises(InputError):
        Poly(field, nvars, terms)


def test_field_tags_name_the_fields():
    assert (F2, Q) == ("F2", "Q")
    assert Poly("F2", 1, {(1,): Fraction(3)}) == Poly(F2, 1, {(1,): 1})
    assert type(Poly("Q", 1, {(1,): Fraction(4, 2)}).terms()[(1,)]) is int
    assert type(Poly("Q", 1, {(1,): Fraction(1, 2)}).terms()[(1,)]) is Fraction
    assert Poly("Q", 1).field is Q


# -- reduction ----------------------------------------------------------------

def test_generator_reduces_to_zero():
    S = TriangularSystem([parse_poly("T1^3", F2, 1)])
    assert reduce(parse_poly("T1^3", F2, 1), S).is_zero()


def test_normal_form_untouched():
    S = TriangularSystem([parse_poly("T1^3", F2, 1)])
    p = parse_poly("T1^2", F2, 1)
    assert reduce(p, S) == p


def test_cross_variable_reduction():
    S = TriangularSystem([parse_poly("T1^2", F2, 2), parse_poly("T2^2+T1*T2", F2, 2)])
    assert reduce(parse_poly("T1^3", F2, 2), S).is_zero()


def test_quotient_basis_univariate():
    S = TriangularSystem([parse_poly("T1^3", F2, 1)])
    assert quotient_basis(S) == [(0,), (1,), (2,)]
    assert S.quotient_dimension == 3


def test_quotient_basis_two_vars():
    S = TriangularSystem([parse_poly("T1^3", F2, 2), parse_poly("T2^2", F2, 2)])
    basis = quotient_basis(S)
    assert len(basis) == 6
    assert basis == sorted(basis, key=monomial_key)


def test_quotient_basis_ground_field():
    S = TriangularSystem([parse_poly("T1", F2, 2), parse_poly("T2", F2, 2)])
    assert quotient_basis(S) == [(0, 0)]


def test_zero_in_quotient_with_certificate():
    S = TriangularSystem([parse_poly("T1^3", F2, 1)])
    assert reduce(parse_poly("T1^2", F2, 1), S) == parse_poly("T1^2", F2, 1)
    assert reduce(parse_poly("T1^3", F2, 1), S).is_zero()


def test_zero_in_quotient_two_vars():
    S = TriangularSystem([parse_poly("T1^3", F2, 2), parse_poly("T2^2+T1*T2", F2, 2)])
    assert reduce(parse_poly("T1^2*T2", F2, 2), S) == parse_poly("T1^2*T2", F2, 2)


def test_triangular_validation():
    with pytest.raises(InputError):
        TriangularSystem([parse_poly("T2", F2, 2), parse_poly("T2^2", F2, 2)])
    with pytest.raises(InputError):
        TriangularSystem([Poly.zero(F2, 1)])
    with pytest.raises(InputError):
        # leading T2-coefficient is T1, not a constant
        TriangularSystem([parse_poly("T1", F2, 2), parse_poly("T1*T2^2+T2", F2, 2)])


@pytest.mark.parametrize("make", [
    lambda: TriangularSystem([5]),
    lambda: TriangularSystem(["T1"]),
    lambda: TriangularSystem([parse_poly("T1", F2, 2), "T2"]),
    lambda: reduce(5, TriangularSystem([P("T1^2")])),
    lambda: reduce(P("T1"), "x"),
])
def test_values_that_are_not_polys_or_systems_are_input_errors(make):
    with pytest.raises(InputError):
        make()


# -- reduction properties -----------------------------------------------------

def test_reduce_is_linear_and_idempotent():
    rng = random.Random(101)
    for field in (F2, Q):
        for _ in range(40):
            nvars = rng.randint(1, 3)
            S = random_triangular(rng, field, nvars, dmax=4)
            p = random_poly(rng, field, nvars)
            q = random_poly(rng, field, nvars)
            assert reduce(p + q, S) == reduce(p, S) + reduce(q, S)
            assert reduce(reduce(p, S), S) == reduce(p, S)


def test_ideal_membership_of_generator_multiples():
    rng = random.Random(202)
    for field in (F2, Q):
        for _ in range(30):
            nvars = rng.randint(1, 3)
            S = random_triangular(rng, field, nvars, dmax=4)
            p = random_poly(rng, field, nvars)
            g = S.gens[rng.randrange(nvars)]
            assert reduce(p * g, S).is_zero()


def test_normal_form_is_order_independent():
    # lowest-variable-first sweeps must reach the same fixed point
    rng = random.Random(303)
    for field in (F2, Q):
        for _ in range(30):
            nvars = rng.randint(2, 3)
            S = random_triangular(rng, field, nvars, dmax=4)
            p = random_poly(rng, field, nvars)
            expected = reduce(p, S)
            r = p
            while True:
                for j in range(1, nvars + 1):
                    if degree_in(r, j) >= S.lead_degrees[j - 1]:
                        r = Poly(field, nvars, reference_reduce_in_variable(field, dict(r.terms()), j, S))
                        break
                else:
                    break
            assert r == expected


def test_rational_scalars_commute_with_reduction():
    rng = random.Random(404)
    for _ in range(30):
        nvars = rng.randint(1, 3)
        S = random_triangular(rng, Q, nvars, dmax=4)
        p = random_poly(rng, Q, nvars)
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        assert reduce(p.scaled(c), S) == reduce(p, S).scaled(c)


def test_normal_form_degrees_below_caps():
    rng = random.Random(505)
    for _ in range(30):
        nvars = rng.randint(1, 3)
        S = random_triangular(rng, F2, nvars, dmax=5)
        r = reduce(random_poly(rng, F2, nvars, max_deg=7), S)
        for j in range(1, nvars + 1):
            assert degree_in(r, j) < S.lead_degrees[j - 1]


# -- text format ---------------------------------------------------------------

def test_format_is_canonical_graded_lex():
    p = parse_poly("T2^2 + T1*T2 + T1^2", F2, 2)
    assert format_poly(p) == "T1^2+T1*T2+T2^2"


def test_round_trip_specific():
    for text, field, nvars in [
        ("0", F2, 2),
        ("1", F2, 3),
        ("T1^2+T1*T2+T2^2", F2, 2),
        ("3/2*T1+-1*T2", Q, 2),
        ("-5*T1^4", Q, 1),
    ]:
        p = parse_poly(text, field, nvars)
        assert parse_poly(format_poly(p), field, nvars) == p


def test_round_trip_random():
    rng = random.Random(606)
    for field in (F2, Q):
        for _ in range(50):
            nvars = rng.randint(1, 3)
            p = random_poly(rng, field, nvars)
            assert parse_poly(format_poly(p), field, nvars) == p
            # formatting is bit-stable
            assert format_poly(parse_poly(format_poly(p), field, nvars)) == format_poly(p)


def test_parser_accepts_whitespace_and_reordering():
    a = parse_poly("  T2^2 +T1 * T2\n+ T1^2 ", F2, 2)
    b = parse_poly("T1^2+T1*T2+T2^2", F2, 2)
    assert a == b


def test_parser_accepts_minus_signs():
    p = parse_poly("T1-T2", Q, 2)
    assert p == parse_poly("1*T1+-1*T2", Q, 2)


def test_parser_rejects_garbage():
    with pytest.raises(InputError):
        parse_poly("T0+T1", F2, 2)
    with pytest.raises(InputError):
        parse_poly("T3", F2, 2)
    with pytest.raises(InputError):
        parse_poly("x+y", F2, 2)
    with pytest.raises(InputError):
        parse_poly("", F2, 2)
    with pytest.raises(InputError):
        parse_poly("1/2*T1", F2, 2)
    with pytest.raises(InputError):
        parse_poly("1/0*T1", Q, 2)
    for text in (5, ["T1"], None):
        with pytest.raises(InputError, match="polynomial text must be a string"):
            parse_poly(text, F2, 1)


# -- cross-validation against sympy -------------------------------------------

def _to_sympy(p, gens):
    import sympy as sp

    expr = sp.Integer(0)
    for m, c in p.terms().items():
        term = sp.Integer(c.numerator) / sp.Integer(c.denominator) if p.field == Q else sp.Integer(c)
        for g, e in zip(gens, m):
            term *= g ** e
        expr += term
    return expr


def _random_homogeneous_triangular(rng, field, nvars, dmax=4):
    # product-of-linear-forms generators: homogeneous, monic in the top variable
    gens = []
    for j in range(1, nvars + 1):
        d = rng.randint(1, dmax)
        g = Poly.one(field, nvars)
        for _ in range(d):
            coeffs = [0] * nvars
            for i in range(j - 1):
                coeffs[i] = rng.randint(0, 1) if field == F2 else rng.randint(-2, 2)
            coeffs[j - 1] = 1 if field == F2 else rng.choice([1, 2, 3])
            g = g * Poly.linear_form(field, coeffs)
        gens.append(g)
    return TriangularSystem(gens)


@pytest.mark.parametrize("field", [F2, Q])
def test_reduce_matches_sympy_on_homogeneous_systems(field):
    sp = pytest.importorskip("sympy")
    rng = random.Random(707)
    for _ in range(10):
        nvars = rng.randint(1, 3)
        S = _random_homogeneous_triangular(rng, field, nvars, dmax=3)
        p = random_poly(rng, field, nvars, max_deg=3, max_terms=5)
        mine = reduce(p, S)
        gens = sp.symbols(f"T1:{nvars + 1}")
        # graded-lex with the last variable most significant: reverse the gens
        order_gens = tuple(reversed(gens))
        domain = sp.GF(2) if field == F2 else sp.QQ
        basis = [sp.Poly(_to_sympy(g, gens), *order_gens, domain=domain) for g in S.gens]
        target = sp.Poly(_to_sympy(p, gens), *order_gens, domain=domain)
        _, rem = sp.reduced(target, basis, *order_gens, order="grlex", domain=domain)
        diff = sp.Poly(rem.as_expr() - _to_sympy(mine, gens), *gens, domain=domain)
        assert diff.is_zero
