"""Tests for symmetric-power tables and the minimal embedding degree."""

import io
import json
import random
from itertools import combinations_with_replacement
from math import comb

import pytest

from eulerlab import linalg
from eulerlab.cli import run
from eulerlab.errors import HypothesisError, InputError, ResourceLimitError
from eulerlab.polyring import F2
from eulerlab.reps import FlagE, RepE, decompose
from eulerlab.sympow import (
    MAX_SYM_DEGREE,
    MAX_SYM_SPAN,
    min_embedding_k,
    sym_multiplicities,
)
from tests_support_random import complete_flags, vectors2

A, B, AB = (1, 0), (0, 1), (1, 1)


def brute_force_sym(U, d):
    """Enumerate degree-d monomials in character-labeled variables directly."""
    labels = []
    for char, m in U.items():
        labels.extend([char] * m)
    zero = (0,) * U.rank
    counts = {}
    if d == 0:
        counts[zero] = 1
    else:
        for combo in combinations_with_replacement(range(len(labels)), d):
            total = zero
            for idx in combo:
                total = linalg.xor(total, labels[idx])
            counts[total] = counts.get(total, 0) + 1
    return {c: m for c, m in counts.items() if m}


def dp_sym(U, d):
    """The former implementation: a dynamic program over (degree, label) states.

    A block of m variables sharing a label contributes C(m + k - 1, k)
    monomials of degree k, and only the parity of k moves the label.
    """
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


def odd_sum(U, k):
    """S^1 + S^3 + ... + S^(2k-1) as one table."""
    acc = RepE(U.rank, {})
    for j in range(1, k + 1):
        acc = acc.direct_sum(sym_multiplicities(U, 2 * j - 1))
    return acc


# -- sym_multiplicities ----------------------------------------------------------

def test_sign_rep_odd_power():
    out = sym_multiplicities(RepE(1, {(1,): 1}), 3)
    assert out == RepE(1, {(1,): 1})


def test_two_characters_cubed():
    out = sym_multiplicities(RepE(2, {A: 1, B: 1}), 3)
    assert out == RepE(2, {A: 2, B: 2})


def test_degree_zero_is_constants():
    out = sym_multiplicities(RepE(2, {A: 2, AB: 1}), 0)
    assert out == RepE(2, {(0, 0): 1})


def test_matches_brute_force_small():
    rng = random.Random(1)
    for _ in range(40):
        rank = rng.randint(1, 3)
        chars = vectors2(rank)
        table = {}
        total = 0
        while total < 4 and rng.random() < 0.8:
            c = rng.choice(chars)
            table[c] = table.get(c, 0) + 1
            total += 1
        U = RepE(rank, table)
        d = rng.randint(0, 5)
        assert sym_multiplicities(U, d).multiplicities() == brute_force_sym(U, d)


def test_matches_the_former_dynamic_program():
    rng = random.Random(6)
    for rank in range(1, 6):
        labels = vectors2(rank)
        for _ in range(8):
            # at most eight labels keep the oracle's (degree, label) states few
            support = rng.sample(labels, rng.randint(1, min(len(labels), 8)))
            U = RepE(rank, {c: rng.randint(1, 4) for c in support})
            for d in (0, 1, 2, rng.randint(3, 40), 40):
                out = sym_multiplicities(U, d)
                assert out.items() == dp_sym(U, d).items(), (U, d)


def test_trivial_and_repeated_labels_match_the_former_dynamic_program():
    tables = [
        RepE(1, {(0,): 3}),
        RepE(2, {(0, 0): 2, A: 3}),
        RepE(3, {(0, 0, 0): 1, (1, 1, 0): 5, (0, 0, 1): 2}),
    ]
    for U in tables:
        for d in range(41):
            assert sym_multiplicities(U, d) == dp_sym(U, d)


def test_zero_module():
    assert sym_multiplicities(RepE(2, {}), 0) == RepE(2, {(0, 0): 1})
    assert sym_multiplicities(RepE(2, {}), 5) == RepE(2, {})


def test_total_dimension_binomial():
    rng = random.Random(2)
    for _ in range(40):
        rank = rng.randint(1, 3)
        table = {}
        for c in vectors2(rank):
            m = rng.randint(0, 2)
            if m:
                table[c] = m
        U = RepE(rank, table)
        d = rng.randint(0, 6)
        expected = comb(U.dim + d - 1, d) if U.dim else (1 if d == 0 else 0)
        assert sym_multiplicities(U, d).dim == expected


def test_relabeling_equivariance():
    rng = random.Random(3)
    for _ in range(20):
        rank = rng.randint(1, 3)
        table = {}
        for c in vectors2(rank):
            m = rng.randint(0, 2)
            if m:
                table[c] = m
        U = RepE(rank, table)
        while True:
            M = [tuple(rng.randint(0, 1) for _ in range(rank)) for _ in range(rank)]
            if linalg._rank(F2, M, rank) == rank:
                break

        def relabel(rep):
            out = {}
            for c, m in rep.items():
                image = tuple(linalg.dot2(row, c) for row in M)
                out[image] = out.get(image, 0) + m
            return RepE(rank, out)

        d = rng.randint(0, 5)
        assert sym_multiplicities(relabel(U), d) == relabel(sym_multiplicities(U, d))


def test_odd_powers_dominate_base_blockwise():
    rng = random.Random(4)
    for _ in range(15):
        rank = rng.randint(1, 3)
        table = {}
        for c in vectors2(rank):
            if any(c) and rng.random() < 0.6:
                table[c] = rng.randint(1, 2)
        U = RepE(rank, table)
        if linalg._rank(F2, U.nonzero_support(), rank) != rank:
            continue
        for flag in complete_flags(rank):
            base = decompose(U, flag).dims
            if any(b == 0 for b in base):
                continue
            for j in range(1, 6):
                power = decompose(sym_multiplicities(U, 2 * j - 1), flag).dims
                assert all(p >= b for p, b in zip(power, base))


# -- min_embedding_k ----------------------------------------------------------------

def test_min_k_rank_one_formula():
    for m in (1, 2, 3):
        for d in (1, 2, 4):
            report = min_embedding_k(
                RepE(1, {(1,): 1}), RepE(1, {(1,): m}), d, FlagE.standard(1)
            )
            assert report["k"] == max(m + 1, m + d)


def test_min_k_degree_zero():
    report = min_embedding_k(RepE(1, {(1,): 1}), RepE(1, {(1,): 1}), 0, FlagE.standard(1))
    assert report["k"] == 2
    assert report["claims"]["per_degree_at_least_base"]
    assert report["claims"]["accumulated_at_least_k_times_base"]


def test_min_k_spanning_failure():
    with pytest.raises(HypothesisError, match="span"):
        min_embedding_k(RepE(2, {A: 1}), RepE(2, {B: 1}), 1, FlagE.standard(2))


def test_min_k_requires_nonzero_module():
    with pytest.raises(HypothesisError, match="nonzero"):
        min_embedding_k(RepE(1, {}), RepE(1, {(1,): 1}), 1, FlagE.standard(1))


def test_min_k_flag_must_meet_every_block():
    U = RepE(2, {A: 1, B: 1})
    flag = FlagE(2, [AB, B])  # block 1 holds only (1,1), missing from U
    with pytest.raises(HypothesisError, match="block 1"):
        min_embedding_k(U, RepE(2, {A: 1}), 1, flag)


def test_min_k_report_consistency():
    U = RepE(2, {A: 1, B: 1, AB: 1})
    V = RepE(2, {A: 2, B: 1})
    report = min_embedding_k(U, V, 3, FlagE.standard(2))
    assert odd_sum(U, report["k"]).dim == report["total_dim"]
    assert all(a > t for a, t in zip(report["block_dims"], report["target_block_dims"]))
    assert report["total_dim"] - V.dim >= 3
    if report["k"] > 1:
        # k is minimal: k-1 fails one of the two conditions
        smaller = odd_sum(U, report["k"] - 1)
        dims = decompose(smaller, FlagE.standard(2)).dims
        assert (
            any(a <= t for a, t in zip(dims, report["target_block_dims"]))
            or smaller.dim - V.dim < 3
        )


def test_min_k_sums_match_the_direct_sum():
    rng = random.Random(7)
    for _ in range(20):
        rank = rng.randint(1, 3)
        units = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
        # a trivial summand of U puts trivial labels into every odd power
        U = RepE(rank, {(0,) * rank: 1, **{c: rng.randint(1, 2) for c in units}})
        V = RepE(rank, {c: rng.randint(1, 4) for c in rng.sample(units, rng.randint(1, rank))})
        flag = FlagE.standard(rank)
        report = min_embedding_k(U, V, rng.randint(0, 30), flag)
        acc = odd_sum(U, report["k"])
        blocks = decompose(acc, flag)
        assert tuple(report["block_dims"]) == blocks.dims
        assert report["fixed_dim"] == blocks.fixed_dim > 0
        assert report["total_dim"] == acc.dim


# -- the degree and span caps ----------------------------------------------------------

def test_degree_cap():
    U = RepE(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1, (1, 1, 1): 1})
    assert sym_multiplicities(U, MAX_SYM_DEGREE).dim == comb(U.dim + MAX_SYM_DEGREE - 1, MAX_SYM_DEGREE)
    with pytest.raises(ResourceLimitError, match=f"above the limit of {MAX_SYM_DEGREE}"):
        sym_multiplicities(U, MAX_SYM_DEGREE + 1)
    with pytest.raises(InputError, match="must be nonnegative"):
        sym_multiplicities(U, -1)


def test_min_k_stops_at_the_degree_cap():
    # the closed form k = max(m + 1, m + d) puts S^(2k-1) just past the cap
    m = (MAX_SYM_DEGREE + 1) // 2
    sign = RepE(1, {(1,): 1})
    assert min_embedding_k(sign, RepE(1, {(1,): m - 1}), 1, FlagE.standard(1))["k"] == m
    with pytest.raises(ResourceLimitError) as exc:
        min_embedding_k(sign, RepE(1, {(1,): m}), 1, FlagE.standard(1))
    assert str(exc.value) == "symmetric power degree 101 is above the limit of 100"


def _units(rank, count):
    return RepE(rank, {tuple(int(i == j) for j in range(rank)): 1 for i in range(count)})


def _sympow_cli(U, d):
    doc = {"group": {"kind": "elem_abelian_2", "rank": U.rank},
           "module": {"entries": [{"char": list(c), "mult": m} for c, m in U.items()]}}
    out, err = io.StringIO(), io.StringIO()
    code = run(["sympow", "-d", str(d), "--inline", json.dumps(doc)], out, err)
    return code, out.getvalue(), err.getvalue()


def test_span_cap_accepts_span_six():
    assert MAX_SYM_SPAN == 6
    # the cap reads the span of the support, not the rank of the group
    U = _units(7, 6).direct_sum(RepE(7, {(1, 1, 0, 0, 0, 1, 0): 2}))
    assert sym_multiplicities(U, 12).dim == comb(U.dim + 11, 12)
    code, out, err = _sympow_cli(U, 3)
    assert (code, err) == (0, "")
    assert f"total dim: {comb(U.dim + 2, 3)}" in out


def test_span_cap_refuses_span_seven():
    U = _units(7, 7)
    message = "dim span(supp U) = 7 is above the sympow limit of 6"
    with pytest.raises(ResourceLimitError) as exc:
        sym_multiplicities(U, 0)
    assert str(exc.value) == message
    with pytest.raises(ResourceLimitError, match="above the sympow limit of 6"):
        min_embedding_k(U, _units(7, 1), 1, FlagE.standard(7))
    assert _sympow_cli(U, 3) == (2, "", f"error: {message}\n")
