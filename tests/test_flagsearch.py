"""Tests for the chain flag search and the maximal-subgroup scan.

The search is checked against two independent oracles: brute force over every
admissible flag (F2: all complete flags; Q: chains spanned by candidate
lines), and the single-path gap-maximizing loops it replaced, kept here as
reference implementations.  Its carried residuals are checked against the
search that reduces by the whole span at every node, in tests_support_random.
The subgroup scan is checked against the scan over every subspace of (F2)^l
that it replaced, also kept here.
"""

import random
import time
from itertools import permutations, product
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eulerlab import flagsearch, linalg
from eulerlab.errors import HypothesisError, ResourceLimitError
from eulerlab.flagsearch import (
    best_fixed_subgroup,
    find_flag,
    find_rational_flag,
    gap_table,
    reduced_flag_search,
)
from eulerlab.polyring import F2, Q
from eulerlab.reps import FlagE, RationalFlag, RepE, RepT, Subgroup, decompose, line_blocks
from tests_support_random import (
    complete_flags,
    reference_chain_search,
    reference_subspace_bases2,
    span2,
    subgroup_contains,
    vectors2,
)

A, B, AB = (1, 0), (0, 1), (1, 1)


def test_gap_table():
    U = RepE(2, {A: 3, B: 1})
    V = RepE(2, {A: 1, AB: 2})
    assert gap_table(U, V) == {A: 2, B: 1, AB: -2}


# -- find_flag -------------------------------------------------------------------

def test_find_flag_rank_one():
    U = RepE(1, {(1,): 5})
    V = RepE(1, {(1,): 2})
    flag = find_flag(U, V)
    assert flag.dual_basis == ((1,),)


def test_find_flag_worked_example():
    U = RepE(2, {A: 3, B: 1, AB: 1})
    V = RepE(2, {A: 1})
    flag = find_flag(U, V)
    assert flag.dual_basis[0] == A  # E^1 = span(alpha)
    d_u = decompose(U, flag).dims
    d_v = decompose(V, flag).dims
    assert d_u == (3, 2) and d_v == (1, 0)


def test_find_flag_boundary_failure():
    # dim U - dim V equals dim U^E: hypothesis fails
    U = RepE(1, {(0,): 1, (1,): 2})
    V = RepE(1, {(1,): 2})
    with pytest.raises(HypothesisError, match="dim U\\^E"):
        find_flag(U, V)


def test_find_flag_requires_v_fixed_free():
    with pytest.raises(HypothesisError, match="V\\^E"):
        find_flag(RepE(1, {(1,): 3}), RepE(1, {(0,): 1}))


def test_find_flag_can_dead_end_without_subgroup_reduction():
    # all weight sits on one character: the second step has no positive gap
    U = RepE(2, {A: 2})
    V = RepE(2, {})
    with pytest.raises(HypothesisError, match="step 2"):
        find_flag(U, V)
    # but the composed pipeline reduces by ker(alpha) and succeeds
    search = reduced_flag_search(U, V)
    assert search.subgroup == Subgroup(2, [B])
    assert search.quotient_module == RepE(1, {(1,): 2})
    assert decompose(search.quotient_module, search.flag).dims == (2,)


def test_find_flag_deterministic():
    rng = random.Random(5)
    for _ in range(20):
        table = {}
        for c in (A, B, AB):
            m = rng.randint(0, 3)
            if m:
                table[c] = m
        U = RepE(2, table)
        V = RepE(2, {})
        if U.dim == 0:
            continue
        try:
            f1 = find_flag(U, V)
            f2 = find_flag(U, V)
        except HypothesisError:
            continue
        assert f1 == f2


# -- best_fixed_subgroup -----------------------------------------------------------

def test_best_fixed_subgroup_trivial_when_gaps_decay():
    U = RepE(2, {A: 2, B: 1, AB: 1})
    V = RepE(2, {})
    assert best_fixed_subgroup(U, V) == Subgroup(2)


def test_best_fixed_subgroup_kernel():
    U = RepE(2, {A: 2})
    V = RepE(2, {})
    F = best_fixed_subgroup(U, V)
    assert F == Subgroup(2, [B])  # ker(alpha), gap 2 >= 2, maximal


def test_best_fixed_subgroup_precondition():
    with pytest.raises(HypothesisError):
        best_fixed_subgroup(RepE(1, {(1,): 1}), RepE(1, {(0,): 1}))


def _unit(rank, i):
    return tuple(1 if j == i else 0 for j in range(rank))


@pytest.mark.parametrize("k, count", enumerate([1, 2, 5, 16, 67, 374, 2825]))
def test_best_fixed_subgroup_draws_every_subspace_once(k, count):
    # U on the unit characters of F2^k: the answer is the oracle's, which
    # draws each of the `count` subspaces of F2^k once
    rank = max(k, 1)
    U = RepE(rank, {_unit(rank, i): 1 for i in range(k)} or {(0,) * rank: 1})
    V = RepE(rank, {})
    F = best_fixed_subgroup(U, V)
    assert sum(1 for _ in reference_subspace_bases2(k)) == count
    assert F == _exhaustive_best_fixed_subgroup(U, V)
    assert F.dim == (1 if k == 0 else 0)


def test_best_fixed_subgroup_resource_limit():
    # the limit is on dim span(supp U), not on the rank of the group
    units = [_unit(7, i) for i in range(7)]
    with pytest.raises(ResourceLimitError, match=r"dim span\(supp U\) <= 6, got 7"):
        best_fixed_subgroup(RepE(7, {u: 1 for u in units}), RepE(7, {}))
    assert best_fixed_subgroup(RepE(7, {units[0]: 1}), RepE(7, {})) == Subgroup(7, units[1:])


def _exhaustive_best_fixed_subgroup(U, V):
    """The scan over every subspace of (F2)^l that best_fixed_subgroup
    replaced, kept as its oracle: qualifying subspaces by dot products,
    maximal ones by comparing spans, the least canonical basis winning.

    Spans are bitsets over the vectors of (F2)^l, visited largest first: a
    subspace is maximal when no maximal subspace found before it contains it,
    which keeps the comparison linear in the number of qualifying subspaces.
    """
    rank = U.rank

    def fixed_dim(rep, basis):
        return sum(m for c, m in rep.items() if all(linalg.dot2(c, f) == 0 for f in basis))

    target = U.dim - V.dim
    qualifying = [
        basis
        for basis in reference_subspace_bases2(rank)
        if fixed_dim(U, basis) - fixed_dim(V, basis) >= target
    ]
    index = {v: i for i, v in enumerate(vectors2(rank))}
    spans = {basis: sum(1 << index[v] for v in span2(basis, rank)) for basis in qualifying}
    maximal = []
    for basis in sorted(qualifying, key=len, reverse=True):
        if not any(spans[basis] & spans[m] == spans[basis] for m in maximal):
            maximal.append(basis)
    return Subgroup(rank, min(maximal))


def _random_scan_pair(rng, rank):
    """U supported in the span of a few random characters, sometimes with a
    trivial summand; V drawn from every nontrivial character."""
    vectors = vectors2(rank)
    nonzero = vectors[1:]
    span = sorted(v for v in span2(rng.sample(nonzero, rng.randint(1, rank)), rank) if any(v))
    U = {c: rng.randint(1, 3) for c in rng.sample(span, rng.randint(1, min(len(span), rank + 2)))}
    if rng.random() < 0.3:
        U[vectors[0]] = rng.randint(1, 2)
    V = {c: rng.randint(1, 3) for c in rng.sample(nonzero, rng.randint(0, min(len(nonzero), rank + 1)))}
    return RepE(rank, U), RepE(rank, V)


def test_best_fixed_subgroup_matches_exhaustive_scan():
    rng = random.Random(2027)
    trivial_u = v_outside = 0
    for rank, count in ((1, 100), (2, 200), (3, 300), (4, 280), (5, 100), (6, 20)):
        for _ in range(count):
            U, V = _random_scan_pair(rng, rank)
            assert best_fixed_subgroup(U, V) == _exhaustive_best_fixed_subgroup(U, V), (U, V)
            trivial_u += U.fixed_dim > 0
            span = span2(U.support(), rank)
            v_outside += any(c not in span for c in V.support())
    assert trivial_u > 200 and v_outside > 200


def _dense_scan_pair(rng, with_trivial):
    """A rank-6 pair shaped like the benchmark's subgroup scan: 6 to 14
    nonzero U characters spanning F2^6 with multiplicity 1 to 3, and 1 to 6
    V characters drawn from every nonzero character."""
    nonzero = vectors2(6)[1:]
    while True:
        chars = rng.sample(nonzero, rng.randint(6, 14))
        if linalg._rank(F2, chars, 6) == 6:
            break
    U = {c: rng.randint(1, 3) for c in chars}
    if with_trivial:
        U[(0,) * 6] = rng.randint(1, 2)
    V = {c: rng.randint(1, 3) for c in rng.sample(nonzero, rng.randint(1, 6))}
    return RepE(6, U), RepE(6, V)


def test_best_fixed_subgroup_dense_rank_six_matches_exhaustive_scan():
    # the span of supp U is all of F2^6, so the scan meets lattices of
    # hundreds of distinct fixed sets
    rng = random.Random(6064)
    proper = v_outside = 0
    for i in range(12):
        U, V = _dense_scan_pair(rng, with_trivial=i % 4 == 0)
        F = best_fixed_subgroup(U, V)
        assert F == _exhaustive_best_fixed_subgroup(U, V), (U, V)
        proper += F.dim > 0
        v_outside += any(c not in U.support() for c in V.support())
    assert proper >= 3 and v_outside >= 3


def _padded(rep, rank):
    return RepE(rank, {c + (0,) * (rank - rep.rank): m for c, m in rep.items()})


def test_best_fixed_subgroup_zero_padding():
    # padding with zero coordinates adds the new unit vectors to the answer
    rng = random.Random(404)
    for _ in range(400):
        rank, big = rng.randint(1, 4), rng.choice((7, 8))
        U, V = _random_scan_pair(rng, rank)
        small = _exhaustive_best_fixed_subgroup(U, V)
        expected = [f + (0,) * (big - rank) for f in small.basis] + [_unit(big, i) for i in range(rank, big)]
        assert best_fixed_subgroup(_padded(U, big), _padded(V, big)) == Subgroup(big, expected), (U, V)


def test_best_fixed_subgroup_rank_eight_small_support():
    U = RepE(4, {(1, 0, 0, 0): 2, (0, 1, 0, 0): 1, (0, 0, 1, 1): 3, (1, 1, 1, 0): 1, (0, 0, 0, 0): 1})
    V = RepE(4, {(1, 1, 0, 0): 1, (0, 0, 1, 1): 2, (1, 0, 1, 0): 1})
    start = time.perf_counter()
    F = best_fixed_subgroup(_padded(U, 8), _padded(V, 8))
    assert time.perf_counter() - start < 1.0
    small = _exhaustive_best_fixed_subgroup(U, V)
    assert F == Subgroup(8, [f + (0,) * 4 for f in small.basis] + [_unit(8, i) for i in range(4, 8)])


def test_best_fixed_subgroup_maximality_by_enumeration():
    from eulerlab import linalg

    rng = random.Random(6)
    for _ in range(40):
        rank = rng.randint(1, 3)
        chars = [c for c in vectors2(rank)]
        table_u, table_v = {}, {}
        for c in chars:
            mu = rng.randint(0, 2)
            if mu:
                table_u[c] = mu
            if any(c):
                mv = rng.randint(0, 2)
                if mv:
                    table_v[c] = mv
        U, V = RepE(rank, table_u), RepE(rank, table_v)
        F = best_fixed_subgroup(U, V)
        target = U.dim - V.dim

        def gap_of(basis):
            fu = sum(m for c, m in U.items() if all(linalg.dot2(c, f) == 0 for f in basis))
            fv = sum(m for c, m in V.items() if all(linalg.dot2(c, f) == 0 for f in basis))
            return fu - fv

        assert gap_of(F.basis) >= target
        # nothing strictly above F qualifies
        for basis in reference_subspace_bases2(rank):
            G = Subgroup(rank, basis)
            if subgroup_contains(G, F) and G.dim > F.dim:
                assert gap_of(G.basis) < target


# -- find_rational_flag --------------------------------------------------------------

def test_rational_flag_rank_one():
    U = RepT(1, {(1,): 2})
    V = RepT(1, {(5,): 1})
    flag = find_rational_flag(U, V)
    assert flag.dual_basis == ((1,),)
    assert decompose(U, flag).dims == (2,)
    assert decompose(V, flag).dims == (1,)


def test_rational_flag_rank_two():
    U = RepT(2, {(1, 0): 2, (0, 1): 2})
    V = RepT(2, {(1, 1): 1})
    flag = find_rational_flag(U, V)
    du, dv = decompose(U, flag).dims, decompose(V, flag).dims
    assert all(a > b for a, b in zip(du, dv))


def test_rational_flag_failure_on_zero_module():
    with pytest.raises(HypothesisError, match="step 1"):
        find_rational_flag(RepT(2, {}), RepT(2, {}))


def test_rational_flag_preconditions():
    with pytest.raises(HypothesisError, match="U\\^T"):
        find_rational_flag(RepT(1, {(0,): 1}), RepT(1, {}))
    with pytest.raises(HypothesisError, match="V\\^T"):
        find_rational_flag(RepT(1, {(1,): 1}), RepT(1, {(0,): 1}))


def test_rational_flag_no_valid_completion():
    # gaps cancel on the forced second step
    U = RepT(2, {(0, 1): 1, (1, 1): 1})
    V = RepT(2, {(1, 0): 1, (0, 1): 0 + 1})
    with pytest.raises(HypothesisError):
        find_rational_flag(U, V)


def test_rational_flag_deterministic():
    U = RepT(2, {(1, 0): 2, (0, 1): 2})
    V = RepT(2, {(1, 1): 1})
    assert find_rational_flag(U, V) == find_rational_flag(U, V)


# -- reference implementations and brute-force oracles ---------------------------------

def _greedy_flag(U, V):
    """The former single-path F2 search: best coset at each step, no backtracking."""
    rank = U.rank
    gaps = gap_table(U, V)
    zero = (0,) * rank
    span = {zero}
    chosen = []
    for _ in range(rank):
        best = None
        seen = set(span)
        for gamma in vectors2(rank):
            if gamma in seen:
                continue
            coset = {linalg.xor(gamma, s) for s in span}
            seen |= coset
            score = sum(gaps.get(a, 0) for a in coset)
            if best is None or score > best[0] or (score == best[0] and gamma < best[1]):
                best = (score, gamma, coset)
        if best is None or best[0] <= 0:
            return None
        chosen.append(best[1])
        span |= best[2]
    return FlagE(rank, chosen)


def _in_spanq(rows, v, n):
    return linalg._rank(Q, list(rows) + [v], n) == linalg._rank(Q, rows, n)


def _greedy_rational_flag(U, V):
    """The former single-path Q search over U lines plus the standard basis."""
    rank = U.rank
    line_gaps = {}
    for lam, block in line_blocks(U).items():
        line_gaps[lam] = line_gaps.get(lam, 0) + block.dim
    for lam, block in line_blocks(V).items():
        line_gaps[lam] = line_gaps.get(lam, 0) - block.dim
    standard = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    candidates = sorted(set(line_blocks(U)) | set(standard))
    chosen = []
    assigned = set()
    for _ in range(rank):
        best = None
        for w in candidates:
            if _in_spanq(chosen, w, rank):
                continue
            trial = chosen + [w]
            newly = [
                lam for lam in sorted(line_gaps)
                if lam not in assigned and _in_spanq(trial, lam, rank)
            ]
            score = sum(line_gaps[lam] for lam in newly)
            if best is None or score > best[0] or (score == best[0] and w < best[1]):
                best = (score, w, newly)
        if best is None or best[0] <= 0:
            return None
        chosen.append(best[1])
        assigned |= set(best[2])
    return RationalFlag(rank, chosen)


def _admissible(flag, U, V):
    return all(a > b for a, b in zip(decompose(U, flag).dims, decompose(V, flag).dims))


def _int_rank(rows):
    """Rank over Q by fraction-free elimination on integer rows."""
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for i in range(rank + 1, len(rows)):
            rows[i] = [top[c] * a - rows[i][c] * b for a, b in zip(rows[i], top)]
        rank += 1
    return rank


def _chain_dims(prefix, table, rank):
    """Block dims for the chain whose first rank-1 steps are spanned by `prefix`."""
    dims = [0] * rank
    for w, m in table.items():
        i = next((k for k in range(1, rank) if _int_rank(list(prefix[:k]) + [w]) == k), rank)
        dims[i - 1] += m
    return dims


def _exists_rational_flag(U, V):
    """Brute force over chains spanned by the lines of U and V and the standard basis."""
    rank = U.rank
    standard = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    lines = sorted(set(line_blocks(U)) | set(line_blocks(V)) | set(standard))
    for prefix in permutations(lines, rank - 1):
        if _int_rank(prefix) == rank - 1 or rank == 1:
            du = _chain_dims(prefix, U.multiplicities(), rank)
            dv = _chain_dims(prefix, V.multiplicities(), rank)
            if all(a > b for a, b in zip(du, dv)):
                return True
    return False


def _random_table(rng, labels, max_labels, max_mult):
    return {c: rng.randint(1, max_mult) for c in rng.sample(labels, rng.randint(0, max_labels))}


def test_find_flag_complete_against_all_flags():
    flags = {rank: complete_flags(rank) for rank in (1, 2, 3)}
    rng = random.Random(11)
    certified = 0
    for _ in range(800):
        rank = rng.randint(1, 3)
        chars = vectors2(rank)
        U = RepE(rank, _random_table(rng, chars, min(4, len(chars)), 3))
        V = RepE(rank, _random_table(rng, chars[1:], min(3, len(chars) - 1), 2))
        exists = any(_admissible(f, U, V) for f in flags[rank])
        try:
            flag = find_flag(U, V)
        except HypothesisError:
            assert not exists, f"no flag reported for {U} vs {V}"
            continue
        assert _admissible(flag, U, V)
        reference = _greedy_flag(U, V)
        if reference is None:
            certified += 1
        else:
            assert flag.dual_basis == reference.dual_basis
    assert certified > 0  # the sample includes pairs where the single path dead-ends


def test_find_rational_flag_complete_against_line_chains():
    rng = random.Random(12)
    certified = 0
    for _ in range(300):
        rank = rng.randint(1, 3)
        weights = [w for w in product(range(-2, 3), repeat=rank) if any(w)]
        U = RepT(rank, _random_table(rng, weights, min(4, len(weights)), 3))
        V = RepT(rank, _random_table(rng, weights, min(3, len(weights)), 2))
        exists = _exists_rational_flag(U, V)
        try:
            flag = find_rational_flag(U, V)
        except HypothesisError:
            assert not exists, f"no flag reported for {U} vs {V}"
            continue
        assert _admissible(flag, U, V)
        reference = _greedy_rational_flag(U, V)
        if reference is None:
            certified += 1
        else:
            assert flag.dual_basis == reference.dual_basis
    assert certified > 0


def test_find_flag_backtracks_past_best_first_step():
    # the best first step (0,1) leaves no positive second step; (1,0) works
    U = RepE(2, {B: 2, A: 1})
    V = RepE(2, {AB: 1})
    assert _greedy_flag(U, V) is None
    assert find_flag(U, V).dual_basis == (A, B)


def test_find_rational_flag_backtracks_past_best_first_step():
    U = RepT(2, {(1, 0): 3, (0, 1): 3})
    V = RepT(2, {(3, 0): 2, (1, 3): 2})
    assert _greedy_rational_flag(U, V) is None
    flag = find_rational_flag(U, V)
    assert flag.dual_basis == ((1, 0), (0, 1))
    assert decompose(U, flag).dims == (3, 3) and decompose(V, flag).dims == (2, 2)


def test_chain_search_reduction_budget(monkeypatch):
    monkeypatch.setattr(flagsearch, "MAX_CHAIN_REDUCTIONS", 1)
    with pytest.raises(ResourceLimitError, match="exceeded 1 residual reductions"):
        find_flag(RepE(2, {A: 2, B: 1}), RepE(2, {}))
    with pytest.raises(ResourceLimitError, match="exceeded 1 residual reductions"):
        find_rational_flag(RepT(2, {(1, 0): 2, (0, 1): 2}), RepT(2, {}))


def test_a_wide_chain_search_is_refused_by_its_budget():
    # every label lies in x_16 = 0, so no flag exists, and the search backs
    # out of ever more spans of the 15 unit labels and 50 others; the budget
    # counts the residuals those spans reduce, not the spans
    rng = random.Random(1)
    labels = {tuple(int(i == k) for i in range(16)) for k in range(15)}
    while len(labels) < 65:
        labels.add(tuple(rng.randint(0, 1) for _ in range(15)) + (0,))
    labels.discard((0,) * 16)
    with pytest.raises(ResourceLimitError, match=f"exceeded {flagsearch.MAX_CHAIN_REDUCTIONS} residual reductions"):
        find_flag(RepE(16, dict.fromkeys(labels, 1)), RepE(16, {}))


# -- carried residuals against reduction by the whole span -------------------------

CHAIN_SETTINGS = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
BUDGETS = st.one_of(st.integers(1, 60), st.just(flagsearch.MAX_CHAIN_REDUCTIONS))


def _search_outcome(search, field, rank, gaps, candidates, limit):
    """The chain, or the kind and text of the error, with the reduction budget set."""
    with mock.patch.object(flagsearch, "MAX_CHAIN_REDUCTIONS", limit):
        try:
            return "chain", search(field, rank, gaps, candidates, "no extension")
        except (HypothesisError, ResourceLimitError) as exc:
            return type(exc).__name__, str(exc)


def _check_chain_search(field, table, limit):
    rank, gaps, candidates = table
    outcome = _search_outcome(flagsearch._chain_search, field, rank, gaps, candidates, limit)
    assert outcome == _search_outcome(reference_chain_search, field, rank, gaps, candidates, limit)


@st.composite
def f2_gap_tables(draw):
    rank = draw(st.integers(1, 4))
    vectors = vectors2(rank)
    gaps = draw(st.dictionaries(st.sampled_from(vectors[1:]), st.integers(-2, 4)))
    return rank, gaps, vectors


@st.composite
def q_gap_tables(draw):
    """Labels and candidates are any nonzero integer vectors, lines repeated
    and not primitive included; the unit vectors are always candidates."""
    rank = draw(st.integers(1, 3))
    vector = st.tuples(*[st.integers(-3, 3)] * rank).filter(any)
    gaps = draw(st.dictionaries(vector, st.integers(-1, 4), min_size=rank, max_size=8))
    candidates = sorted(set(draw(st.lists(vector, max_size=6))) | set(linalg.unit_vectors(rank)))
    return rank, gaps, candidates


@CHAIN_SETTINGS
@given(f2_gap_tables(), BUDGETS)
def test_chain_search_matches_whole_span_reduction_f2(table, limit):
    _check_chain_search(F2, table, limit)
    # over F2 every class is named by its residual, the least vector of its
    # coset, so no candidates give what all 2^rank covectors give; listed
    # candidates cost reductions, so that holds under the full budget
    rank, gaps, vectors = table
    full = flagsearch.MAX_CHAIN_REDUCTIONS
    assert _search_outcome(flagsearch._chain_search, F2, rank, gaps, (), full) == _search_outcome(
        reference_chain_search, F2, rank, gaps, vectors, full
    )
    assert _search_outcome(flagsearch._chain_search, F2, rank, gaps, (), limit) == _search_outcome(
        reference_chain_search, F2, rank, gaps, (), limit
    )


@CHAIN_SETTINGS
@given(q_gap_tables(), BUDGETS)
def test_chain_search_matches_whole_span_reduction_q(table, limit):
    _check_chain_search(Q, table, limit)
