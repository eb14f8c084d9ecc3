"""e(V) loses the terms of the ideal as it forms them, and arithmetic returns
canonical term dicts.

`euler_poly(V, flag, system)` drops every term of a product that the
system's drop rule (`system.drop`) marks, before it multiplies that product
again or hands it to `reduce`.  Oracle: the whole product reduced once,
`reduce(euler_poly(V, flag), system)`, on derandomized pairs over F2 (rank
1-5) and the torus (rank 1-3), against the deferred presentation, the eager
graded system of the same relations, and a system that is not graded, whose
single-term generators give the single-term rule.  A spy on `reduce` checks
that `euler_poly` never hands it a marked key.

`Poly._trusted` takes its terms as given, so every result the arithmetic,
`reduce` and `euler_poly` return must already be canonical: no zero
coefficient, every F2 coefficient the int 1, and every integral Q
coefficient an int.
"""

import random
from collections import Counter
from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eulerlab import reps
from eulerlab.cohomology import presentation
from eulerlab.polyring import BITS, F2, Q, Poly, TriangularSystem, _prefix_mult, reduce
from eulerlab.reps import decompose, euler_poly
from tests_support_random import is_canonical_q, random_pair, random_triangular

SETTINGS = settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def coefficient(rng, field):
    return 1 if field == F2 else Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2))


def ungraded_system(rng, field, nvars):
    """A system in nvars >= 2 variables that is not graded.  g_1 = c*T_1^{d_1}
    is a single term, and so is each later g_j half the time, except one that
    is not: it adds a term of lower total degree than T_j^{d_j} and up to two
    other terms, each in T_1..T_j and below d_j in T_j."""
    light = rng.randrange(1, nvars)
    gens = []
    for j in range(nvars):
        d = rng.randint(1, 3)
        top = tuple(d if i == j else 0 for i in range(nvars))
        terms = {top: coefficient(rng, field)}
        if j == light or j and rng.random() < 0.5:
            low = [0] * nvars
            low[j] = rng.randint(0, d - 1)
            for _ in range(rng.randint(0, d - 1 - low[j])):
                low[rng.randrange(j)] += 1
            terms[tuple(low)] = coefficient(rng, field)
            for _ in range(rng.randint(0, 2)):
                m = tuple(rng.randint(0, 2) if i < j else rng.randint(0, d - 1) if i == j else 0 for i in range(nvars))
                terms.setdefault(m, coefficient(rng, field))
        gens.append(Poly(field, nvars, terms))
    return TriangularSystem(gens)


def marked(system, keys):
    """The packed keys that the system's drop rule marks as lying in the ideal."""
    mult = _prefix_mult(system.nvars)
    lift, bits = system.drop
    return [m for m in keys if (m * mult + lift) & bits]


def test_euler_poly_drops_the_marked_terms_and_keeps_the_normal_form(monkeypatch):
    handed = []

    def spy(p, system):
        handed.append(p)
        return reduce(p, system)

    monkeypatch.setattr(reps, "reduce", spy)
    kinds = Counter()

    @SETTINGS
    @given(st.booleans(), st.booleans(), st.integers(0, 2**32))
    def check(torus, admissible, seed):
        rng = random.Random(seed)
        U, V, flag = random_pair(rng, torus, admissible)
        whole = euler_poly(V, flag)
        systems = {
            "deferred": presentation(U, flag),
            "eager": TriangularSystem([euler_poly(block, flag) for block in decompose(U, flag).blocks]),
        }
        if flag.rank > 1:
            systems["single-term"] = ungraded_system(rng, flag.field, flag.rank)
        for kind, system in systems.items():
            # the single-term rule reads the key fields, the prefix-degree rule the prefix fields
            assert (system.drop[1] >> BITS * flag.rank == 0) == (kind == "single-term")
            handed.clear()
            assert euler_poly(V, flag, system) == reduce(whole, system)
            assert not [m for p in handed for m in marked(system, p._terms)]
            kinds[kind] += 1
            kinds[f"{kind}: e(V) has marked terms"] += bool(marked(system, whole._terms))
            kinds[f"{kind}: reduced"] += bool(handed)
        kinds["Q" if torus else "F2"] += 1

    check()
    assert min(kinds.values()) >= 40, kinds


def assert_canonical(p):
    for c in p.terms().values():
        assert c != 0
        if p.field == F2:
            assert type(c) is int and c == 1
        else:
            assert is_canonical_q(c)


def random_poly(rng, field, nvars):
    """Up to five terms of degree <= 3 in each variable; over Q the
    coefficients have denominator 1 or 2, so sums and products of them are
    often integral."""
    terms = {}
    for _ in range(rng.randint(0, 5)):
        terms[tuple(rng.randint(0, 3) for _ in range(nvars))] = coefficient(rng, field)
    return Poly(field, nvars, terms)


def test_results_hold_canonical_coefficients():
    kinds = Counter()

    @SETTINGS
    @given(st.sampled_from([F2, Q]), st.integers(1, 3), st.integers(0, 2**32))
    def check(field, nvars, seed):
        rng = random.Random(seed)
        p, q = random_poly(rng, field, nvars), random_poly(rng, field, nvars)
        system = random_triangular(rng, field, nvars, dmax=3)
        linear = [rng.choice([0, 1]) if field == F2 else rng.choice([0, 1, -2, Fraction(1, 2)]) for _ in range(nvars)]
        results = [
            p + q, p + p, p + (-p), p - q, p - p, -p, p * q, p * q - q * p, p ** rng.randint(0, 3),
            Poly._linear(field, linear), reduce(p * q, system),
        ]
        U, V, flag = random_pair(rng, field == Q, rng.random() < 0.5, nvars)
        results += [euler_poly(V, flag), euler_poly(V, flag, presentation(U, flag))]
        for r in results:
            assert_canonical(r)
        assert (p + (-p)).is_zero() and (p - p).is_zero() and (p * q - q * p).is_zero()
        kinds[field] += 1
        kinds["cancelled terms"] += (p + q).term_count() < p.term_count() + q.term_count()
        kinds["zero linear coefficient"] += 0 in linear

    check()
    assert min(kinds.values()) >= 40, kinds


def test_integral_sums_are_ints_and_repeated_terms_cancel():
    half = Poly(Q, 2, {(1, 0): Fraction(1, 2), (0, 1): Fraction(-3, 2)})
    assert dict((half + half).terms()) == {(1, 0): 1, (0, 1): -3}
    assert dict((half * Poly(Q, 2, {(0, 0): 2})).terms()) == {(1, 0): 1, (0, 1): -3}
    assert dict(Poly._linear(Q, (0, Fraction(1, 2))).terms()) == {(0, 1): Fraction(1, 2)}
    # the constructor adds the coefficients of a repeated monomial, then cleans
    doubled = Poly(Q, 1, [((1,), Fraction(1, 2))] * 2)
    assert dict(doubled.terms()) == {(1,): 1}
    assert Poly(F2, 1, [((1,), 1)] * 2).is_zero()
    for p in (half + half, half * half, -half, Poly._linear(Q, (0, Fraction(1, 2))), doubled):
        assert_canonical(p)
