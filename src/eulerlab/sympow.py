"""Symmetric-power character tables and the minimal embedding degree search.

Multiplicities of S^d of a (Z/2)^l table are counted exactly by dynamic
programming over the characters: a block of m variables sharing a label
contributes C(m + k - 1, k) monomials of degree k, and only the parity of k
moves the accumulated label.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from . import linalg
from .errors import HypothesisError, InputError, require_count, require_int
from .polyring import F2
from .reps import FlagE, RepE, decompose

# Largest symmetric-power degree.  The table's cost grows with the square of
# the degree: at rank 3 with four labels S^100 takes about 0.03 s, and a
# min_embedding_k search that runs into the cap (S^1, S^3, ..., S^99) about
# 0.5 s (CPython 3.11 on a 2-CPU Xeon host).
MAX_SYM_DEGREE = 100


def sym_multiplicities(U, d):
    """Character table of the degree-d symmetric power of U (same table as U*)."""
    if not isinstance(U, RepE):
        raise InputError("symmetric powers are computed for (Z/2)^l tables")
    d = require_count(d, "symmetric power degree", MAX_SYM_DEGREE)
    zero = (0,) * U.rank
    states = {(0, zero): 1}
    for char, m in sorted(U.items()):
        new = {}
        for (deg, acc), count in states.items():
            for k in range(d - deg + 1):
                label = linalg.xor(acc, char) if k % 2 else acc
                key = (deg + k, label)
                new[key] = new.get(key, 0) + count * comb(m + k - 1, k)
        states = new
    table = {label: c for (deg, label), c in states.items() if deg == d and c}
    return RepE(U.rank, dict(sorted(table.items())))


def odd_symmetric_sum(U, k):
    """Direct sum of the symmetric powers of odd degree 1, 3, ..., 2k - 1."""
    if k < 1:
        raise InputError("need k >= 1")
    acc = sym_multiplicities(U, 1)
    for j in range(2, k + 1):
        acc = acc.direct_sum(sym_multiplicities(U, 2 * j - 1))
    return acc


@dataclass(frozen=True)
class EmbeddingReport:
    """Least k whose odd symmetric sum dominates the target at every block."""

    k: int
    degree_target: int
    block_dims: tuple
    target_block_dims: tuple
    total_dim: int
    fixed_dim: int
    claims: dict


def min_embedding_k(U, V, d, flag):
    """Smallest k with dim U[k]_i > dim V_i for all i and dim U[k] - dim V >= d.

    U[k] is the direct sum of the odd symmetric powers S^1, S^3, ..., S^{2k-1}
    of U.  Requires U != 0, nonzero labels of U spanning the dual space,
    V^E = 0, and a flag meeting every block of U.  Under these, S^(2k-1)
    holds every label of U, so U[k] has at least k times U's dimension in
    each block and some k qualifies; the search stops with a resource limit
    only when S^(2k-1) passes MAX_SYM_DEGREE.  The report also checks that
    each odd power dominates the base blockwise and that U[k] grows at least
    k-fold per block.
    """
    if not isinstance(U, RepE) or not isinstance(V, RepE):
        raise InputError("expected (Z/2)^l tables")
    if U.rank != V.rank or (flag is not None and flag.rank != U.rank):
        raise InputError("rank mismatch among U, V, and the flag")
    if U.dim == 0:
        raise HypothesisError("U must be nonzero")
    span_dim = linalg._rank(F2, U.nonzero_support(), U.rank)
    if span_dim != U.rank:
        raise HypothesisError(
            "support characters do not span the dual space "
            f"(span has dimension {span_dim} < {U.rank})"
        )
    if V.fixed_dim:
        raise HypothesisError(f"V^E = 0 is required (dim V^E = {V.fixed_dim})")
    if not isinstance(flag, FlagE):
        raise InputError("a flag is required")
    base_dims = decompose(U, flag).dims
    for i, dim_i in enumerate(base_dims, start=1):
        if dim_i == 0:
            raise HypothesisError(f"flag block {i} misses U (dim U_{i} = 0)")
    target_dims = decompose(V, flag).dims
    d = require_int(d, "degree target")
    if d < 0:
        raise InputError("degree target must be nonnegative")

    acc = None
    per_degree_ok = True
    for k in itertools.count(1):
        power = sym_multiplicities(U, 2 * k - 1)
        if any(p < b for p, b in zip(decompose(power, flag).dims, base_dims)):
            per_degree_ok = False
        acc = power if acc is None else acc.direct_sum(power)
        acc_decomp = decompose(acc, flag)
        dims = acc_decomp.dims
        if all(a > t for a, t in zip(dims, target_dims)) and acc.dim - V.dim >= d:
            claims = {
                "per_degree_at_least_base": per_degree_ok,
                "accumulated_at_least_k_times_base": all(
                    a >= k * b for a, b in zip(dims, base_dims)
                ),
            }
            return EmbeddingReport(
                k=k,
                degree_target=d,
                block_dims=dims,
                target_block_dims=target_dims,
                total_dim=acc.dim,
                fixed_dim=acc_decomp.fixed_dim,
                claims=claims,
            )
