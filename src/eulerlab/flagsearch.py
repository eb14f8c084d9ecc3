"""Flag construction: one complete chain search and the maximal-subgroup scan.

The chain search, shared by the F2 and Q flags, certifies step by step that
each new flag block carries a strictly larger share of U than of V, and
backtracks so that "no flag" means no admissible flag exists; its node count
is capped by MAX_CHAIN_NODES.  An extension is named by its least candidate,
else by its residual, the least vector of its coset over F2: so the F2 search
lists no covectors, and the Q unit vectors only name classes.  The subgroup
scan ANDs the 2^k - 1 hyperplane masks of the k-dimensional span of U's
support into every distinct fixed set, so it is exhaustive where it matters
and stays desk-scale while k is at most MAX_SUBGROUP_RANK, whatever the rank.
"""

from operator import add

from . import linalg
from .errors import HypothesisError, ResourceLimitError
from .polyring import F2, Q
from .reps import RepE, RepT, Subgroup, fixed_subrep, line_blocks, require_no_fixed_part, require_tables

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
    coset over F2, a line over Q.  The residuals are carried down the
    search: each node holds the summed gap of every nonzero label residual
    and the least candidate of every nonzero candidate residual, and a child
    reduces those residuals by its new row alone.  For a fixed pivot set the
    pivot-free residual is unique (up to the scalar `field.line` removes), so
    this gives what reducing every label and candidate by the whole span
    would.
    An extension is named by its least candidate, else by its residual d,
    and the name becomes the chain's covector.  Over F2, d is the least
    vector of its coset d + S: every nonzero s in S has its first nonzero
    entry at a pivot, where d is 0, so d + s > d.
    Extensions go best summed gap first, ties to the least name, so the
    gap-maximizing path is returned whenever it never dead-ends.  Dead spans
    are memoized; on failure HypothesisError names one step past the longest
    chain reached.
    """
    dead = set()
    nodes = 0
    deepest = 0
    line = field.line

    def by(v, q, d):
        """The vector v reduced by the row d of pivot q."""
        return line(tuple(d[q] * a - v[q] * b for a, b in zip(v, d))) if v[q] else v

    def reduced(classes, q, d, merge):
        """`classes` with every residual reduced by the row d of pivot q;
        the values of residuals that meet are merged, zero residuals dropped."""
        out = {}
        for v, x in classes.items():
            v = by(v, q, d)
            if any(v):
                out[v] = merge(out[v], x) if v in out else x
        return out

    def extend(rows, score, rep, remaining):
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
            for _, name, d in sorted((-s, rep.get(d, d), d) for d, s in score.items() if s > 0):
                q = next(i for i, a in enumerate(d) if a)
                grown = [(p, by(row, q, d)) for p, row in rows]
                rest = extend(
                    sorted(grown + [(q, d)]),
                    reduced(score, q, d, add),
                    reduced(rep, q, d, min),
                    remaining - score[d],
                )
                if rest is not None:
                    return [name] + rest
        dead.add(key)
        return None

    score = {label: gap for label, gap in gaps.items() if any(label)}
    rep = {w: w for w in candidates if any(w)}
    chain = extend([], score, rep, sum(score.values()))
    if chain is None:
        raise HypothesisError(f"{failure} at step {deepest + 1}")
    return chain


def find_flag(U, V):
    """Flag with dim U_i > dim V_i for every i, or a hypothesis failure.

    The search is complete: it fails only when no admissible flag exists.
    Among admissible flags it returns the first in gap-maximizing order: at
    each step the extension with the largest summed gap over its new
    characters, ties going to the lexicographically least new covector, which
    also becomes T_i.  It is the extension's residual, so no covector is listed.
    """
    _check_pair_e(U, V, gap=True)
    failure = "no flag extension with positive dimension gap"
    return RepE.flag_type(U.rank, _chain_search(F2, U.rank, gap_table(U, V), (), failure))


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
    is fixed by no F containing K.  So the scan runs over the subspaces W of
    F2^k.  The fixed set of W is the AND of the masks of characters orthogonal
    to each nonzero y in W, and any AND of such masks is the fixed set of the
    span of their y, so the fixed sets are {everything} closed under AND with
    each of the 2^k - 1 masks; no basis of any W is listed.  The masks take one
    XOR each past the unit vectors.  Each distinct set's gap sum is taken once,
    by adding up per-byte tables of the gaps.

    Maximality: let M be the set of U-characters fixed by a qualifying F.  A
    U-character in span(M) lies in F^perp, so it is already in M.  Hence
    M <= M' exactly when span(M) <= span(M'), and span(M)^perp is a
    qualifying subgroup containing F.  The maximal qualifying subgroups are
    therefore the nullspaces of the minimal sets M, found by subset tests on
    the masks.

    Limit: 2^k - 1 masks, and never more sets than F2^k has subspaces, so
    k = dim S, not the rank of the group, is limited to MAX_SUBGROUP_RANK.
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
    everything = (1 << len(vectors)) - 1
    u_bits = sum(1 << j for j, c in enumerate(vectors) if U.multiplicity(c))
    # odd[y] has bit j when coords[j] . y is odd; parity is additive, so
    # odd[y] = odd[y without its lowest bit] ^ odd[that bit]
    odd = [0] * (1 << k)
    for i in range(k):
        odd[1 << i] = sum(1 << j for j, x in enumerate(coords) if x >> i & 1)
    fixed_sets = {everything}
    for y in range(1, 1 << k):
        low = y & -y
        odd[y] = odd[y ^ low] ^ odd[low]
        g = everything ^ odd[y]
        fixed_sets |= {m & g for m in fixed_sets}
    # gap sums by byte: the table of the characters lo..lo+7 maps each byte
    # b to the sum of the gaps of the characters lo + j over the bits j of b
    sets = list(fixed_sets)
    totals = [0] * len(sets)
    for lo in range(0, len(vectors), 8):
        chunk = gaps[lo:lo + 8]
        table = [0] * (1 << len(chunk))
        for b in range(1, len(table)):
            low = b & -b
            table[b] = table[b ^ low] + chunk[low.bit_length() - 1]
        totals = [t + table[m >> lo & 255] for t, m in zip(totals, sets)]
    target = U.dim - V.dim
    fixed_u = {m & u_bits for m, t in zip(sets, totals) if t >= target}
    minimal = [m for m in fixed_u if not any(o != m and o & m == o for o in fixed_u)]
    candidates = [
        Subgroup(rank, linalg._nullspace2([c for j, c in enumerate(vectors) if m >> j & 1], rank))
        for m in minimal
    ]
    return min(candidates, key=lambda F: F.basis)


class ReducedFlagSearch:
    """Outcome of the subgroup-then-flag pipeline: the `subgroup` F, the
    `quotient_module` U^F and `quotient_target` V^F over the quotient group,
    and their `flag`.  Immutable, like `Poly`: assigning an attribute raises."""

    __slots__ = ("subgroup", "quotient_module", "quotient_target", "flag")

    def __init__(self, subgroup, quotient_module, quotient_target, flag):
        object.__setattr__(self, "subgroup", subgroup)
        object.__setattr__(self, "quotient_module", quotient_module)
        object.__setattr__(self, "quotient_target", quotient_target)
        object.__setattr__(self, "flag", flag)

    def __setattr__(self, name, value):
        raise AttributeError("ReducedFlagSearch is immutable")


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
    support plus the standard basis.  Each step of an admissible chain must
    cover a new line of U, so every extension the search tries holds a U line
    candidate and the chain is spanned by U lines; a unit vector in the same
    class only names it when it is the lesser.
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
