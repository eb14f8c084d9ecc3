"""Flag construction: one complete chain search and the maximal-subgroup scan.

The chain search, shared by the F2 and Q flags, certifies step by step that
each new flag block carries a strictly larger share of U than of V, and
backtracks so that "no flag" means no admissible flag exists; its node count
is capped by MAX_CHAIN_NODES.  The subgroup scan runs over the subspaces of the
span of U's support in that span's own coordinates, so it is exhaustive where
it matters and stays desk-scale while that span has dimension at most
MAX_SUBGROUP_RANK = 6, whatever the rank of the group.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .errors import HypothesisError, ResourceLimitError
from .polyring import F2, Q
from .reps import FlagE, RepE, RepT, Subgroup, fixed_subrep, line_blocks, require_no_fixed_part, require_tables

MAX_SUBGROUP_RANK = 6
MAX_CHAIN_NODES = 20000


def gap_table(U, V):
    """d^alpha = dim U^alpha - dim V^alpha on the union of the supports."""
    require_tables(RepE, U, V)
    gaps = {}
    for c, m in U.items():
        gaps[c] = gaps.get(c, 0) + m
    for c, m in V.items():
        gaps[c] = gaps.get(c, 0) - m
    return gaps


def _check_pair_e(U, V, gap=False):
    """Input checks and V^E = 0; with `gap`, also dim U - dim V > dim U^E."""
    require_tables(RepE, U, V)
    require_no_fixed_part("V", V)
    if gap and U.dim - V.dim <= U.fixed_dim:
        raise HypothesisError(
            f"dim U - dim V must exceed dim U^E ({U.dim} - {V.dim} = {U.dim - V.dim} "
            f"vs dim U^E = {U.fixed_dim})"
        )


def _chain_search(field, rank, gaps, candidates, failure):
    """Covectors spanning a chain 0 < S_1 < ... < S_rank in which every step
    newly covers labels of positive summed gap, found depth first.

    `gaps` maps nonzero labels to gaps and `candidates` are ascending
    covectors.  A span is a canonical integer RREF, and the residual of a
    vector, put in `field.line` normal form, names the extension it spans: a
    coset over F2, a line over Q.
    Extensions go best summed gap first, ties to the least candidate, so the
    gap-maximizing path is returned whenever it never dead-ends.  Dead spans
    are memoized; on failure HypothesisError names one step past the longest
    chain reached.
    """
    dead = set()
    nodes = 0
    deepest = 0

    def residual(v, rows):
        for p, row in rows:
            if v[p]:
                v = field.line(tuple(row[p] * a - v[p] * b for a, b in zip(v, row)))
        return v

    def extend(rows, remaining):
        nonlocal nodes, deepest
        depth = len(rows)
        if depth == rank:
            return []
        key = tuple(row for _, row in rows)
        if key in dead:
            return None
        nodes += 1
        if nodes > MAX_CHAIN_NODES:
            raise ResourceLimitError(f"flag search exceeded {MAX_CHAIN_NODES} chain nodes")
        deepest = max(deepest, depth)
        # every remaining step needs a gap of at least 1, and the steps
        # together cover every label not yet in the span
        if remaining >= rank - depth:
            score = {}
            for label, gap in gaps.items():
                d = residual(label, rows)
                if any(d):
                    score[d] = score.get(d, 0) + gap
            rep = {}
            for w in candidates:
                d = residual(w, rows)
                if score.get(d, 0) > 0:
                    rep.setdefault(d, w)
            for d in sorted(rep, key=lambda d: (-score[d], rep[d])):
                q = next(i for i, a in enumerate(d) if a)
                grown = [(p, residual(row, [(q, d)])) for p, row in rows] + [(q, d)]
                rest = extend(sorted(grown), remaining - score[d])
                if rest is not None:
                    return [rep[d]] + rest
        dead.add(key)
        return None

    chain = extend([], sum(gaps.values()))
    if chain is None:
        raise HypothesisError(f"{failure} at step {deepest + 1}")
    return chain


def find_flag(U, V):
    """Flag with dim U_i > dim V_i for every i, or a hypothesis failure.

    The search is complete: it fails only when no admissible flag exists.
    Among admissible flags it returns the first in gap-maximizing order: at
    each step the extension with the largest summed gap over its new
    characters, ties going to the lexicographically least new covector, which
    also becomes T_i.
    """
    _check_pair_e(U, V, gap=True)
    gaps = {c: g for c, g in gap_table(U, V).items() if any(c)}
    vectors = linalg.all_vectors2(U.rank)
    failure = "no flag extension with positive dimension gap"
    return RepE.flag_type(U.rank, _chain_search(F2, U.rank, gaps, vectors, failure))


def best_fixed_subgroup(U, V):
    """Maximal subgroup F with dim U^F - dim V^F >= dim U - dim V.

    Among incomparable maximal elements the one with the lexicographically
    least canonical basis wins.

    Scan over S = span(supp U).  Shrinking W = F^perp to the span of the
    U-characters inside it keeps dim U^F and cannot raise dim V^F, so every
    maximal qualifying F has F^perp spanned by characters of U and contains
    K = S^perp.  With s_1..s_k the canonical basis of S, f -> (s_i . f)_i
    identifies E/K with F2^k, and a character sum_i x_i s_i of S is fixed by
    f exactly when x . y = 0 for y = (s_i . f)_i; a character of V outside S
    is fixed by no F containing K.  So the scan runs over the subspaces of
    F2^k, and the fixed set of one is the AND of its basis rows' bitmasks of
    orthogonal characters, each distinct set's gap sum taken once.

    Maximality: let M be the set of U-characters fixed by a qualifying F.  A
    U-character in span(M) lies in F^perp, so it is already in M.  Hence
    M <= M' exactly when span(M) <= span(M'), and span(M)^perp is a
    qualifying subgroup containing F.  The maximal qualifying subgroups are
    therefore the nullspaces of the minimal sets M, found by subset tests on
    the masks.

    Limit: every subspace of F2^k is visited, so k = dim S, not the rank of
    the group, is limited to MAX_SUBGROUP_RANK.
    """
    _check_pair_e(U, V)
    rank = U.rank
    span = linalg._rref_canonical2(U.nonzero_support(), rank)
    k = len(span)
    if k > MAX_SUBGROUP_RANK:
        raise ResourceLimitError(
            f"subgroup enumeration is limited to dim span(supp U) <= {MAX_SUBGROUP_RANK}, got {k}"
        )
    pivots = [row.index(1) for row in span]
    # the gap table's characters inside S, with their S-coordinates read off
    # the pivot columns as ints; bit j of a mask stands for vectors[j]
    vectors, coords, gaps = [], [], []
    for c, g in gap_table(U, V).items():
        x = [c[p] for p in pivots]
        back = (0,) * rank
        for a, row in zip(x, span):
            if a:
                back = linalg.xor(back, row)
        if back == c:
            vectors.append(c)
            coords.append(sum(a << i for i, a in enumerate(x)))
            gaps.append(g)
    bits = [1 << j for j in range(len(vectors))]
    u_bits = sum(b for b, c in zip(bits, vectors) if U.multiplicity(c))
    mask_of = {}
    for y in linalg.all_vectors2(k):
        y_int = sum(a << i for i, a in enumerate(y))
        mask_of[y] = sum(b for b, x in zip(bits, coords) if not (x & y_int).bit_count() & 1)

    everything = (1 << len(vectors)) - 1
    fixed_sets = set()
    for basis in linalg.enumerate_subspace_bases2(k):
        m = everything
        for y in basis:
            m &= mask_of[y]
        fixed_sets.add(m)
    target = U.dim - V.dim
    fixed_u = {
        m & u_bits for m in fixed_sets if sum(g for b, g in zip(bits, gaps) if m & b) >= target
    }
    minimal = [m for m in fixed_u if not any(o != m and o & m == o for o in fixed_u)]
    candidates = [
        Subgroup(rank, linalg._nullspace2([c for b, c in zip(bits, vectors) if m & b], rank))
        for m in minimal
    ]
    return min(candidates, key=lambda F: F.basis)


@dataclass(frozen=True)
class ReducedFlagSearch:
    """Outcome of the subgroup-then-flag pipeline."""

    subgroup: Subgroup
    quotient_module: RepE
    quotient_target: RepE
    flag: FlagE


def reduced_flag_search(U, V):
    """Compose best_fixed_subgroup, fixed_subrep, and find_flag.

    Under dim U - dim V > dim U^E and V^E = 0 this never fails: after passing
    to the quotient group the trivial subgroup is maximal for the reduced
    pair, which guarantees that an admissible flag of the quotient exists.
    """
    _check_pair_e(U, V, gap=True)
    F = best_fixed_subgroup(U, V)
    U1 = fixed_subrep(U, F)
    V1 = fixed_subrep(V, F)
    flag = find_flag(U1, V1)
    return ReducedFlagSearch(subgroup=F, quotient_module=U1, quotient_target=V1, flag=flag)


def find_rational_flag(U, V):
    """Rational flag with dim U_i > dim V_i at every step, by the same search.

    Candidate covectors are the primitive representatives of the lines in U's
    support plus the standard basis for completion.  Each step of an
    admissible chain must cover a new line of U, so the chain is spanned by
    U lines and this finite candidate set realizes every admissible pattern.
    """
    require_tables(RepT, U, V)
    require_no_fixed_part("U", U)
    require_no_fixed_part("V", V)
    rank = U.rank
    u_lines = line_blocks(U)
    line_gaps = {lam: block.dim for lam, block in u_lines.items()}
    for lam, block in line_blocks(V).items():
        line_gaps[lam] = line_gaps.get(lam, 0) - block.dim
    candidates = sorted(set(u_lines) | set(linalg.unit_vectors(rank)))
    failure = "no admissible flag extension"
    return RepT.flag_type(rank, _chain_search(Q, rank, line_gaps, candidates, failure))
