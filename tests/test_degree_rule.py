"""`reduce` drops the terms that a degree count shows are zero in the quotient.

In a graded system (no term of any g_j of lower total degree than
T_j^{d_j}) a monomial whose degree P_i in T_1..T_i exceeds
S_i = sum_{k <= i} (d_k - 1) has normal form 0, and `reduce` drops it as soon
as it meets or forms it.  Oracle: the level-by-level division of
`tests_support_random`, which rewrites every term down to T_1, on random
graded systems over F2 and Q in 1-5 variables, some of them products of
linear forms like the ones `cohomology.presentation` builds.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eulerlab.polyring import (
    F2,
    FAR_FACTOR,
    MAX_EXPONENT,
    Q,
    Poly,
    TriangularSystem,
    _guard,
    _prefix_mult,
    parse_poly,
    reduce,
)
from tests_support_random import reference_reduce_in_variable

SETTINGS = settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def coefficient(rng, field):
    return 1 if field == F2 else Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))


def monomial(nvars, exponents):
    return tuple(exponents) + (0,) * (nvars - len(exponents))


def lead_degree(rng, j, far):
    """1-3, except that with `far` d_1 is 26-30: then S_2 >= 8 d_2 + 3, so
    a far power of T_2 is not dropped on sight."""
    return rng.randint(26, 30) if far and j == 1 else rng.randint(1, 3)


def spread_system(rng, field, nvars, far):
    """g_j = c*T_j^d plus up to two terms of T_j-degree below d whose total
    degree is d or d + 1, spread over T_1..T_j at random."""
    gens = []
    for j in range(1, nvars + 1):
        d = lead_degree(rng, j, far)
        terms = {monomial(nvars, [0] * (j - 1) + [d]): coefficient(rng, field)}
        for _ in range(rng.randint(0, 2) if j > 1 else 0):
            lower = [0] * (j - 1)
            e = rng.randint(0, d - 1)
            for _ in range(d - e + rng.randint(0, 1)):
                lower[rng.randrange(j - 1)] += 1
            terms[monomial(nvars, lower + [e])] = coefficient(rng, field)
        gens.append(Poly(field, nvars, terms))
    return TriangularSystem(gens)


def linear_form_system(rng, field, nvars, far):
    """g_j a product of d linear forms c*T_j + (a form in T_1..T_{j-1}),
    homogeneous like an Euler class in flag coordinates."""
    gens = []
    for j in range(1, nvars + 1):
        g = Poly.one(field, nvars)
        for _ in range(lead_degree(rng, j, far)):
            coeffs = [rng.randint(0, 1) if field == F2 else rng.randint(-2, 2) for _ in range(j - 1)]
            coeffs.append(1 if field == F2 else rng.choice([1, 2, 3]))
            g = g * Poly._linear(field, coeffs + [0] * (nvars - j))
        gens.append(g)
    return TriangularSystem(gens)


def random_input(rng, field, system, far):
    """Up to six terms of degree d_j - 3 to d_j in each T_j, which puts
    their degrees in T_1..T_i near the caps S_i; with `far`, one term has
    a T_2-exponent (T_1 in one variable) at or just above FAR_FACTOR * d_2
    and at most 1 in the other variables, so that the oracle's sweep stays
    small."""
    nvars = system.nvars
    terms = {}
    for _ in range(rng.randint(1, 6)):
        terms[tuple(rng.randint(max(0, d - 3), d) for d in system.lead_degrees)] = coefficient(rng, field)
    if far:
        m = [rng.randint(0, 1) for _ in range(nvars)]
        j = min(nvars, 2) - 1
        m[j] = FAR_FACTOR * system.lead_degrees[j] + rng.randint(0, 3)
        terms[tuple(m)] = coefficient(rng, field)
    return Poly(field, nvars, terms)


def uses_degree_rule(system):
    """Whether the system's drop pair is the prefix-degree rule's: bits in
    the prefix-sum fields only."""
    lift, bits = system.drop
    return bits and not bits & ((1 << 32 * system.nvars) - 1)


def degree_killed(system, m):
    """Whether some degree P_i of m in T_1..T_i exceeds S_i while no
    single-term relation kills m: a term only the degree rule drops."""
    single = any(m[k] >= d for k, (d, g) in enumerate(zip(system.lead_degrees, system.gens)) if g.term_count() == 1)
    caps = accumulate(d - 1 for d in system.lead_degrees)
    return not single and any(p > cap for p, cap in zip(accumulate(m), caps))


def level_by_level(p, system):
    """The reference sweep, and whether a term that only the degree rule
    kills is met on the way (so that `reduce` has one to drop): in the input
    or after a level."""
    terms = dict(p.terms())
    dropped = any(degree_killed(system, m) for m in terms)
    for j in range(system.nvars, 0, -1):
        terms = reference_reduce_in_variable(p.field, terms, j, system)
        dropped = dropped or any(degree_killed(system, m) for m in terms)
    return Poly(p.field, p.nvars, terms), dropped


def test_reduce_matches_level_by_level_on_graded_systems():
    kinds = Counter()

    @SETTINGS
    @given(
        st.sampled_from([F2, Q]),
        st.sampled_from(range(1, 6)),
        st.booleans(),
        st.booleans(),
        st.integers(0, 2**32),
    )
    def check(field, nvars, linear, far, seed):
        rng = random.Random(seed)
        system = (linear_form_system if linear else spread_system)(rng, field, nvars, far)
        assert uses_degree_rule(system)
        p = random_input(rng, field, system, far)
        expected, dropped = level_by_level(p, system)
        assert reduce(p, system) == expected
        kinds[f"over {field}"] += 1
        kinds["linear forms" if linear else "spread terms"] += 1
        kinds["3-5 variables"] += nvars >= 3
        kinds["far power"] += bool(system.powers)
        kinds["degree-killed term"] += dropped

    check()
    # every kind is drawn, and a term that only the degree rule kills is met,
    # in at least 45 of the 300 examples each
    assert min(kinds.values()) >= 45, kinds


def test_a_system_that_is_not_graded_is_not_pruned():
    # T1^2 = -1 modulo T1^2 + 1: the constant term is below the lead's degree
    system = TriangularSystem([parse_poly("T1^2+1", Q, 1)])
    assert system.drop == (0, 0)
    assert reduce(parse_poly("T1^2", Q, 1), system) == parse_poly("-1", Q, 1)
    # not graded, so only the single-term rule of g_1 drops
    mixed = TriangularSystem([parse_poly("T1^2", F2, 2), parse_poly("T2^2+T1*T2+T1", F2, 2)])
    assert mixed.drop == (2**31 - 2, 2**31)
    # T2^3 has degree 3 > S_2 = 2 yet survives, since g_2 has the term T1
    assert reduce(parse_poly("T2^3", F2, 2), mixed) == parse_poly("T1*T2", F2, 2)


def test_degree_test_fires_exactly_above_the_caps():
    # d = (2, 3, 2): S = (1, 3, 4)
    gens = ["T1^2", "T2^3+T1*T2^2", "T3^2+T1*T3+T2^2"]
    system = TriangularSystem([parse_poly(g, Q, 3) for g in gens])
    mult, (lift, bits) = _prefix_mult(3), system.drop
    for m, fires in [
        ((1, 0, 0), False), ((2, 0, 0), True),
        ((1, 2, 0), False), ((0, 3, 0), False), ((1, 3, 0), True), ((0, 4, 0), True),
        ((1, 2, 1), False), ((0, 2, 2), False), ((1, 2, 2), True), ((0, 0, 5), True),
    ]:
        key = sum(e << 32 * i for i, e in enumerate(m))
        assert bool((key * mult + lift) & bits) == fires, m
    # the top standard monomial sits on every cap and survives
    top = parse_poly("T1*T2^2*T3", Q, 3)
    assert reduce(top, system) == top
    assert reduce(parse_poly("T1*T2^2*T3^2", Q, 3), system).is_zero()
    assert reduce(parse_poly("T2^2*T3^3", Q, 3), system).is_zero()


@pytest.mark.parametrize("exponent", [2**29 - 1, 2**29, 2**30 - 3, 2**30, 2**30 + 1])
def test_exponents_near_two_to_the_thirty_reduce_as_the_reference_does(exponent):
    # in three variables the degree test reads keys with every exponent
    # below 2^29, and d_1 = 2^30 + 2 puts the caps just above the inputs
    gens = [f"T1^{2**30 + 2}", "T2^2+T1*T2", "T3^2+T2*T3+T1^2"]
    for field in (F2, Q):
        system = TriangularSystem([parse_poly(g, field, 3) for g in gens])
        assert uses_degree_rule(system)
        for text in [f"T1^{exponent}*T2^3*T3^3", f"T1^{exponent}*T3^4+T2*T3^2", f"T1^{exponent}*T2*T3"]:
            p = parse_poly(text, field, 3)
            expected, _ = level_by_level(p, system)
            assert reduce(p, system) == expected, text


def test_a_key_over_a_cap_near_the_exponent_limit_is_dropped():
    # S = (2^31 - 2, 2^31 - 1), both caps below 2^31.  P_2 of
    # T1^(2^31 - 2)*T2^2 is 2^31 > S_2, so the key has normal form 0: the
    # degree test drops it before rewriting by g_2 could reach the limit
    system = TriangularSystem([parse_poly(g, F2, 2) for g in ["T1^2147483647", "T2^2+T1^1073741824*T2"]])
    assert uses_degree_rule(system)
    assert reduce(parse_poly("T1^2147483646*T2^2", F2, 2), system).is_zero()


def test_the_degree_test_marks_exactly_a_lifted_prefix_sum_over_its_cap():
    # the lemma of the polyring module docstring: on a key whose fields are
    # below 2^32, as on every sum of two keys with no guard bit, the packed
    # test marks only keys with P_i > S_i at some lifted level i
    # (S_i < 2^31), and on a key with no guard bit exactly those, although
    # prefix sums past 2^32 carry.  Systems of single-term relations are
    # graded, so the degree rule is the only rule; lead degrees up to
    # MAX_EXPONENT put S_i on both sides of 2^31.  The keys aim their prefix
    # sums at S_i - 1, S_i, S_i + 1 and 2^31, and half of them, whose fields
    # run up to 2^32 - 2, also at 2^31 + 1 + S_i and above, where field l + i
    # of the product wraps.  The oracle reads the unpacked exponents.
    half = 2**31
    widest = 2 * MAX_EXPONENT
    kinds = Counter()

    def degree(rng):
        return rng.choice([rng.randint(1, 3), rng.randint(1, MAX_EXPONENT), MAX_EXPONENT, 2**30 + rng.randint(-2, 2)])

    def exponents(rng, caps, top):
        m, total = [], 0
        for cap in caps:
            targets = [cap - 1, cap, cap + 1, half - 1, half, total + rng.randint(0, top)]
            if top > MAX_EXPONENT:
                targets += [half + 1 + cap + rng.randint(0, 2), total + widest]
            e = min(max(rng.choice(targets) - total, 0), top)
            m.append(e)
            total += e
        return m

    @SETTINGS
    @given(st.integers(1, 8), st.integers(0, 2**32))
    def check(nvars, seed):
        rng = random.Random(seed)
        degrees = [degree(rng) for _ in range(nvars)]
        system = TriangularSystem([Poly(F2, nvars, {monomial(nvars, [0] * j + [d]): 1}) for j, d in enumerate(degrees)])
        assert uses_degree_rule(system)
        lift, bits = system.drop
        caps = list(accumulate(d - 1 for d in degrees))
        mult = _prefix_mult(nvars)
        for n in range(40):
            m = exponents(rng, caps, widest if n % 2 else MAX_EXPONENT)
            key = sum(e << 32 * i for i, e in enumerate(m))
            guarded = bool(key & _guard(nvars))
            over = [p for p, cap in zip(accumulate(m), caps) if cap < half and p > cap]
            marked = bool((key * mult + lift) & bits)
            assert not marked or over, (degrees, m)
            if not guarded:
                assert marked == bool(over), (degrees, m)
                kinds["first over-cap prefix sum >= 2^31"] += bool(over) and over[0] >= half
            kinds["marked, with a guard bit"] += marked and guarded
            kinds["over a lifted cap, with a guard bit, not marked"] += bool(over) and not marked
        kinds["system with an unlifted level"] += caps[-1] >= half

    check()
    assert kinds["first over-cap prefix sum >= 2^31"] >= 100, kinds
    assert kinds["system with an unlifted level"] >= 50, kinds
    assert kinds["marked, with a guard bit"] >= 1000, kinds
    assert kinds["over a lifted cap, with a guard bit, not marked"] >= 500, kinds
