"""`reduce` drops the terms that a single-term relation kills.

A generator g_k = c*T_k^{d_k} makes every multiple of T_k^{d_k} zero in the
quotient.  In a system that is not graded `reduce` drops such a term as soon
as it meets or forms it; a graded system takes the prefix-degree rule
instead, and the term vanishes at level k.  Oracle: the level-by-level
division of `tests_support_random`, which rewrites every term down to T_1, on
random triangular systems over F2 and Q in 1-4 variables, graded and not,
that mix single-term generators (at k = 1 and at k > 1) with generators that
have tails, and on inputs that take the far-power path.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import accumulate

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eulerlab.polyring import (
    F2,
    FAR_FACTOR,
    MAX_EXPONENT,
    Q,
    Poly,
    TriangularSystem,
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


def mixed_system(rng, field, single):
    """g_j = c*T_j^d alone where single[j - 1], else with one or two lower
    terms: T_1..T_{j-1} of degree <= 1 and T_j below d."""
    nvars = len(single)
    gens = []
    for j in range(1, nvars + 1):
        d = rng.randint(1, 3)
        terms = {tuple(d if i == j - 1 else 0 for i in range(nvars)): coefficient(rng, field)}
        for _ in range(0 if single[j - 1] else rng.randint(1, 2)):
            m = tuple(
                rng.randint(0, 1) if i < j - 1 else rng.randint(0, d - 1) if i == j - 1 else 0
                for i in range(nvars)
            )
            terms[m] = coefficient(rng, field)
        gens.append(Poly(field, nvars, terms))
    return TriangularSystem(gens)


def random_input(rng, field, system, far):
    """A few terms of degree <= 4 in each variable; with `far`, one term has
    a T_j-exponent at or just above FAR_FACTOR * d_j, for a g_j with a tail
    where there is one."""
    nvars = system.nvars
    terms = {}
    for _ in range(rng.randint(1, 4)):
        terms[tuple(rng.randint(0, 4) for _ in range(nvars))] = coefficient(rng, field)
    if far:
        m = [rng.randint(0, 2) for _ in range(nvars)]
        j = rng.choice([i for i, tail in enumerate(system.tails) if tail] or range(nvars))
        m[j] = FAR_FACTOR * system.lead_degrees[j] + rng.randint(0, 3)
        terms[tuple(m)] = coefficient(rng, field)
    return Poly(field, nvars, terms)


def is_graded(system):
    """Whether no term of any g_j has lower total degree than T_j^{d_j}."""
    return all(sum(m) >= d for g, d in zip(system.gens, system.lead_degrees) for m in g.terms())


def level_by_level(p, system):
    """The reference sweep, and whether a term that some single-term g_k
    kills survived one of its levels (so that `reduce` has one to drop)."""
    single = [k for k in range(system.nvars) if system.gens[k].term_count() == 1]
    killed = any(m[k] >= system.lead_degrees[k] for m in p.terms() for k in single)
    terms = dict(p.terms())
    for j in range(system.nvars, 0, -1):
        terms = reference_reduce_in_variable(p.field, terms, j, system)
        killed = killed or any(m[k] >= system.lead_degrees[k] for m in terms for k in single)
    return Poly(p.field, p.nvars, terms), killed


def test_reduce_matches_level_by_level_with_single_term_relations():
    kinds = Counter()

    @SETTINGS
    @given(
        st.sampled_from([F2, Q]),
        st.lists(st.booleans(), min_size=1, max_size=4),
        st.booleans(),
        st.integers(0, 2**32),
    )
    def check(field, single, far, seed):
        rng = random.Random(seed)
        system = mixed_system(rng, field, single)
        p = random_input(rng, field, system, far)
        expected, killed = level_by_level(p, system)
        assert reduce(p, system) == expected
        kinds[f"over {field}"] += 1
        kinds["single g_1"] += single[0]
        kinds["single g_k, k > 1"] += any(single[1:])
        kinds["single and tailed"] += any(single) and not all(single)
        kinds["no single"] += not any(single)
        graded = is_graded(system)
        kinds["graded, single g_k"] += graded and any(single)
        kinds["not graded"] += not graded
        kinds["far power"] += bool(system.powers)
        kinds["killed term"] += killed

    check()
    # every kind of system is drawn, a term is killed and a far power of a
    # tailed generator is squared in at least 45 of the 300 examples each
    assert min(kinds.values()) >= 45, kinds


def test_each_system_drops_by_exactly_one_rule():
    # graded: the prefix-degree rule alone, also where some g_k is a single
    # term; not graded: the single-term rule alone
    kinds = Counter()

    @SETTINGS
    @given(st.sampled_from([F2, Q]), st.lists(st.booleans(), min_size=1, max_size=4), st.integers(0, 2**32))
    def check(field, single, seed):
        rng = random.Random(seed)
        system = mixed_system(rng, field, single)
        nvars, degrees = system.nvars, system.lead_degrees
        graded = is_graded(system)
        lift, bits = system.drop
        caps = list(accumulate(d - 1 for d in degrees))
        kept = set()
        for _ in range(40):
            m = [rng.randint(0, d) for d in degrees]
            key = sum(e << 32 * i for i, e in enumerate(m))
            over_cap = any(p > cap for p, cap in zip(accumulate(m), caps))
            killed = any(s and e >= d for s, e, d in zip(single, m, degrees))
            assert bool((key * _prefix_mult(nvars) + lift) & bits) == (over_cap if graded else killed), m
            if graded and killed and not over_cap:
                kept.add("graded, killed but kept")
            if not graded and over_cap and not killed:
                kept.add("not graded, over a cap but kept")
        kinds.update(kept)
        kinds["graded" if graded else "not graded"] += 1

    check()
    assert min(kinds.values()) >= 45, kinds


def test_single_term_test_marks_exactly_the_killed_degrees():
    # the constant term of g_2 makes the system not graded
    gens = ["T1^2", "T2^3+T1*T2+1", f"T3^{MAX_EXPONENT}"]
    system = TriangularSystem([parse_poly(g, F2, 3) for g in gens])
    lift, bits = system.drop
    assert bits == (1 << 31) | (1 << 95)
    for m in [(0, 0, 0), (1, 9, MAX_EXPONENT - 1), (2, 0, 0), (0, 0, MAX_EXPONENT), (5, 7, MAX_EXPONENT)]:
        key = sum(e << 32 * i for i, e in enumerate(m))
        assert bool((key * _prefix_mult(3) + lift) & bits) == (m[0] >= 2 or m[2] >= MAX_EXPONENT)
    tailed = TriangularSystem([parse_poly("T1^2+1", Q, 2), parse_poly("T2+T1", Q, 2)])
    assert tailed.drop == (0, 0)

    # on a key whose fields are below 2^32, as on every sum of two keys with
    # no guard bit, the test marks only a key that reaches d_k at some
    # single-term g_k (a carry out of field k needs e_k >= 2^31 + d_k), and
    # on a key with no guard bit exactly those.  The random systems are not
    # graded: at least one g_j is T_j^{d_j} + 1.  The keys aim each field at
    # d_k - 1, d_k, 2^31 - 1, 2^31, 2^31 + d_k - 1, 2^31 + d_k and 2^32 - 2.
    half = 2**31
    widest = 2 * MAX_EXPONENT
    kinds = Counter()

    @SETTINGS
    @given(st.lists(st.booleans(), min_size=1, max_size=6), st.integers(0, 2**32))
    def check(single, seed):
        rng = random.Random(seed)
        nvars = len(single)
        single[rng.randrange(nvars)] = False
        degrees = [rng.choice([rng.randint(1, 3), rng.randint(1, MAX_EXPONENT), MAX_EXPONENT]) for _ in single]
        gens = []
        for j, (s, d) in enumerate(zip(single, degrees)):
            terms = {tuple(d if i == j else 0 for i in range(nvars)): 1}
            if not s:
                terms[(0,) * nvars] = 1
            gens.append(Poly(F2, nvars, terms))
        system = TriangularSystem(gens)
        lift, bits = system.drop
        mult = _prefix_mult(nvars)
        for _ in range(40):
            m = [min(rng.choice([d - 1, d, half - 1, half, half + d - 1, half + d, widest, rng.randint(0, widest)]), widest)
                 for d in degrees]
            key = sum(e << 32 * i for i, e in enumerate(m))
            guarded = max(m) > MAX_EXPONENT
            killed = any(s and e >= d for s, e, d in zip(single, m, degrees))
            marked = bool((key * mult + lift) & bits)
            assert not marked or killed, (single, degrees, m)
            if not guarded:
                assert marked == killed, (single, degrees, m)
            kinds["marked, with a guard bit"] += marked and guarded
            kinds["marked, no guard bit"] += marked and not guarded
            kinds["killed, with a guard bit, not marked"] += killed and not marked

    check()
    assert kinds["marked, with a guard bit"] >= 2000, kinds
    assert kinds["marked, no guard bit"] >= 100, kinds
    assert kinds["killed, with a guard bit, not marked"] >= 100, kinds


def test_a_killed_term_is_dropped_before_its_rewrite_passes_the_limit():
    # T1^3*T2^4 lies in the ideal; rewriting it by g_2 would reach
    # T1^(3 + 2^31), above the limit, but it is dropped first
    system = TriangularSystem([parse_poly("T1^3", F2, 2), parse_poly("T2^2+T1^1073741824", F2, 2)])
    assert reduce(parse_poly("T1^3*T2^4", F2, 2), system).is_zero()
    assert reduce(parse_poly("T1^3*T2^4+T2", F2, 2), system) == parse_poly("T2", F2, 2)


def test_a_graded_system_drops_a_killed_term_near_the_exponent_limit():
    # graded, so only the prefix-degree rule drops: T1^3 divides T1^(2^30),
    # so T1^(2^30)*T2^4 has normal form 0, and P_1 = 2^30 > S_1 = 2 drops it
    # before rewriting by g_2 could reach T1^(2^31)
    system = TriangularSystem([parse_poly("T1^3", F2, 2), parse_poly("T2^2+T1^1073741824", F2, 2)])
    assert reduce(parse_poly("T1^1073741824*T2^4", F2, 2), system).is_zero()
