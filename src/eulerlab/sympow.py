"""Symmetric-power character tables and the minimal embedding degree search.

Multiplicities of S^d of a (Z/2)^l table U come from Newton's identity in the
group ring of the characters, d S^d = sum_j p_j S^(d-j) with p_j the j-th power
sum of U's labels.  Every character squares to the trivial one, so p_j is U for
odd j and dim U times the trivial character for even j, and

    d S^d = U (S^(d-1) + S^(d-3) + ...) + dim U (S^(d-2) + S^(d-4) + ...),

which two running sums of alternate powers carry, dividing exactly by d.
"""

import itertools

from . import linalg
from .errors import HypothesisError, InputError, ResourceLimitError, require_count, require_int
from .polyring import F2
from .report import Report
from .reps import RepE, decompose, flag_to_doc, require_no_fixed_part, require_tables

# Largest symmetric-power degree, and largest dim span(supp U) (the subgroup
# scan's bound).  S^d costs d steps of |supp U| * 2^span products.  A
# min_embedding_k search that runs into the degree cap (S^1, S^3, ..., S^99)
# takes 0.04 s on four unit characters and 2.6 s on the full support of span 6,
# the worst case accepted; ten unit characters would take 4.1 s (CPython 3.11
# on a 2-CPU Xeon host).
MAX_SYM_DEGREE = 100
MAX_SYM_SPAN = 6


def sym_multiplicities(U, d):
    """Character table of the degree-d symmetric power of U (same table as U*)."""
    require_tables(RepE, U)
    d = require_count(d, "symmetric power degree", MAX_SYM_DEGREE)
    span = linalg._rank(F2, U.nonzero_support(), U.rank)
    if span > MAX_SYM_SPAN:
        raise ResourceLimitError(f"dim span(supp U) = {span} is above the sympow limit of {MAX_SYM_SPAN}")
    # labels as bit masks, so the group-ring product is an xor of ints
    weights = [(sum(b << i for i, b in enumerate(c)), m) for c, m in U.items()]
    dim_u = U.dim
    # S^e, and the running sums S^(e-1) + S^(e-3) + ... and S^(e-2) + S^(e-4) + ...
    power, prev, prev2 = {0: 1}, {0: 1}, {}
    for e in range(1, d + 1):
        total = {label: dim_u * c for label, c in prev2.items()}
        for char, m in weights:
            for label, c in prev.items():
                total[char ^ label] = total.get(char ^ label, 0) + m * c
        power = {label: c // e for label, c in total.items() if c}
        for label, c in power.items():
            prev2[label] = prev2.get(label, 0) + c
        prev, prev2 = prev2, prev
    table = {tuple((label >> i) & 1 for i in range(U.rank)): c for label, c in power.items()}
    return RepE(U.rank, dict(sorted(table.items())))


def min_embedding_k(U, V, d, flag):
    """Smallest k with dim U[k]_i > dim V_i for all i and dim U[k] - dim V >= d.

    U[k] is the direct sum of the odd symmetric powers S^1, S^3, ..., S^{2k-1}
    of U.  Requires U != 0, nonzero labels of U spanning the dual space,
    V^E = 0, and a flag meeting every block of U.  Under these, S^(2k-1)
    holds every label of U, so U[k] has at least k times U's dimension in
    each block and some k qualifies; the search stops with a resource limit
    only when S^(2k-1) passes MAX_SYM_DEGREE, or at S^1 when the rank (the
    span of U's labels) passes MAX_SYM_SPAN.  The report also checks that
    each odd power dominates the base blockwise and that U[k] grows at least
    k-fold per block.
    """
    require_tables(RepE, U, V)
    base_dims = decompose(U, flag).dims
    if U.dim == 0:
        raise HypothesisError("U must be nonzero")
    span_dim = linalg._rank(F2, U.nonzero_support(), U.rank)
    if span_dim != U.rank:
        raise HypothesisError(
            "support characters do not span the dual space "
            f"(span has dimension {span_dim} < {U.rank})"
        )
    require_no_fixed_part("V", V)
    for i, dim_i in enumerate(base_dims, start=1):
        if dim_i == 0:
            raise HypothesisError(f"flag block {i} misses U (dim U_{i} = 0)")
    target_dims = decompose(V, flag).dims
    d = require_int(d, "degree target")
    if d < 0:
        raise InputError("degree target must be nonnegative")

    # U[k] is summed one odd power at a time: its block dims, dim and dim U[k]^E
    dims, total_dim, fixed_dim = (0,) * U.rank, 0, 0
    per_degree_ok = True
    for k in itertools.count(1):
        power = sym_multiplicities(U, 2 * k - 1)
        blocks = decompose(power, flag)
        if any(p < b for p, b in zip(blocks.dims, base_dims)):
            per_degree_ok = False
        dims = tuple(a + p for a, p in zip(dims, blocks.dims))
        total_dim += power.dim
        fixed_dim += blocks.fixed_dim
        if all(a > t for a, t in zip(dims, target_dims)) and total_dim - V.dim >= d:
            claims = {
                "per_degree_at_least_base": per_degree_ok,
                "accumulated_at_least_k_times_base": all(
                    a >= k * b for a, b in zip(dims, base_dims)
                ),
            }
            return Report([
                ("k", "minimal k", k),
                ("degree_target", None, d),
                ("block_dims", "block dims", list(dims)),
                ("target_block_dims", "target block dims", list(target_dims)),
                ("total_dim", "total dim", total_dim),
                ("fixed_dim", None, fixed_dim),
                ("claims", "claims", claims),
                ("flag", None, flag_to_doc(flag)),
            ])
