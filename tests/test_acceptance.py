"""Acceptance criteria, one test per criterion, each printing a PASS line.

Every expected value is produced by an independent oracle (brute-force
enumeration, direct span closures, hand formulas) before being compared to
the library's answer.
"""

import io
import json
import random
import time
from itertools import combinations_with_replacement
from math import comb, factorial, gcd

import numpy as np

from eulerlab import linalg
from eulerlab.bounds import bound_free_zero_set, bound_stiefel, bound_torus
from eulerlab.cli import run as cli_run
from eulerlab.cohomology import euler_nonvanishing, flag_ring, verify_flag_ring
from eulerlab.flagsearch import reduced_flag_search
from eulerlab.polyring import quotient_basis
from eulerlab.reps import RepE, RepT
from eulerlab.sympow import sym_multiplicities
from eulerlab.torusmaps import (
    MapDescription,
    circle_example,
    coordinate_weights,
    embed_on_line,
    join_assemble,
    normalize_to_sphere,
    random_unit_vectors,
    verify_equivariance,
)
from tests_support_random import complete_flags, identity_map, random_triangular, vectors2


def _flag_block_maps(rank):
    """Per complete flag, char -> block index computed by raw span closure."""
    zero = (0,) * rank
    out = []
    for flag in complete_flags(rank):
        spans = []
        span = {zero}
        for t in flag.dual_basis:
            span = span | {linalg.xor(t, s) for s in span}
            spans.append(set(span))
        mapping = {}
        for c in vectors2(rank):
            if not any(c):
                continue
            for i, sp in enumerate(spans, start=1):
                if c in sp:
                    mapping[c] = i
                    break
        out.append((flag, mapping))
    return out


def _block_dims(table, mapping, rank):
    dims = [0] * rank
    for c, m in table.items():
        if any(c):
            dims[mapping[c] - 1] += m
    return dims


# -- criterion 1 ---------------------------------------------------------------

def test_acceptance_1_lemma_euler_property_suite():
    start = time.monotonic()
    rng = random.Random(0)
    checked = 0
    for rank in (1, 2, 3):
        for flag, mapping in _flag_block_maps(rank):
            blocks = [[] for _ in range(rank)]
            for c, i in mapping.items():
                blocks[i - 1].append(c)
            for _ in range(200):
                U_table, V_table = {}, {}
                for i in range(rank):
                    u_i = rng.randint(2, 5)
                    v_i = rng.randint(1, u_i - 1)
                    for _ in range(u_i):
                        c = rng.choice(blocks[i])
                        U_table[c] = U_table.get(c, 0) + 1
                    for _ in range(v_i):
                        c = rng.choice(blocks[i])
                        V_table[c] = V_table.get(c, 0) + 1
                ok, _ = euler_nonvanishing(RepE(rank, U_table), RepE(rank, V_table), flag)
                assert ok, f"vanishing euler class for {U_table} vs {V_table} on {flag}"
                checked += 1
    elapsed = time.monotonic() - start
    assert checked == (1 + 3 + 21) * 200
    assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 (lemma-euler property suite, {checked} cases, {elapsed:.1f}s): PASS")


# -- criterion 2 ---------------------------------------------------------------

def test_acceptance_2_quotient_dimension_and_hilbert_series():
    rng = random.Random(1)
    for trial in range(100):
        nvars = rng.randint(1, 3)
        field = rng.choice(["F2", "Q"])
        system = random_triangular(rng, field, nvars, dmax=6)
        basis = quotient_basis(system)
        expected_size = 1
        for d in system.lead_degrees:
            expected_size *= d
        assert len(basis) == expected_size
        # independent series: polynomial product expanded by convolution
        series = [1]
        for d in system.lead_degrees:
            new = [0] * (len(series) + d - 1)
            for i, c in enumerate(series):
                for e in range(d):
                    new[i + e] += c
            series = new
        counts = [0] * len(series)
        for m in basis:
            counts[sum(m)] += 1
        assert counts == series
    print("\nACCEPTANCE 2 (quotient dimension + hilbert series, 100 systems): PASS")


# -- criterion 3 ---------------------------------------------------------------

def test_acceptance_3_flag_ring_suite():
    start = time.monotonic()
    for n in range(2, 7):
        for l in range(1, n + 1):
            report = verify_flag_ring(n, l, samples=0)
            assert report["passed"], f"structural items failed for n={n}, l={l}: {report.to_text()}"
            assert flag_ring(n, l).quotient_dimension == factorial(n) // factorial(n - l)
    for n in range(2, 6):
        for l in range(1, min(n, 3) + 1):
            report = verify_flag_ring(n, l, samples=100, seed=0)
            assert report["passed"], f"random-table item failed for n={n}, l={l}"
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"criterion 3 took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 3 (flag-ring suite, {elapsed:.1f}s): PASS")


# -- criterion 4 ---------------------------------------------------------------

def test_acceptance_4_flag_search_cross_validation():
    maps_by_rank = {r: _flag_block_maps(r) for r in (1, 2, 3)}
    checked = 0
    for rank in (1, 2, 3):
        all_chars = vectors2(rank)
        nonzero = [c for c in all_chars if any(c)]
        u_tables = [{}]
        for size in range(1, 5):
            u_tables.extend(
                _multiset_to_table(combo) for combo in combinations_with_replacement(all_chars, size)
            )
        v_tables = [{}]
        for size in range(1, 5):
            v_tables.extend(
                _multiset_to_table(combo) for combo in combinations_with_replacement(nonzero, size)
            )
        for ut in u_tables:
            U = RepE(rank, ut)
            for vt in v_tables:
                V = RepE(rank, vt)
                if U.dim - V.dim <= U.fixed_dim:
                    continue
                search = reduced_flag_search(U, V)  # must not raise
                r2 = rank - search.subgroup.dim
                u_t = search.quotient_module.multiplicities()
                v_t = search.quotient_target.multiplicities()
                valid = []
                found = None
                for flag, mapping in maps_by_rank[r2]:
                    du = _block_dims(u_t, mapping, r2)
                    dv = _block_dims(v_t, mapping, r2)
                    if all(a > b for a, b in zip(du, dv)):
                        valid.append(flag.dual_basis)
                    if flag.dual_basis == search.flag.dual_basis:
                        found = (du, dv)
                assert valid, f"brute force found no flag for reduced pair {u_t} vs {v_t}"
                assert found is not None, "flag is not canonical"
                assert search.flag.dual_basis in valid, (
                    f"flag {search.flag.dual_basis} invalid: blocks {found}"
                )
                checked += 1
    print(f"\nACCEPTANCE 4 (flag search vs brute force, {checked} pairs, 0 disagreements): PASS")


def _multiset_to_table(combo):
    table = {}
    for c in combo:
        table[c] = table.get(c, 0) + 1
    return table


# -- criterion 5 ---------------------------------------------------------------

def test_acceptance_5_stiefel_bounds():
    for l, n in [(1, 3), (2, 4), (2, 5), (3, 5)]:
        P = RepE(l, {tuple(1 if j == i else 0 for j in range(l)): 1 for i in range(l)})
        qtable = {}
        for i in range(l):
            qtable[tuple(1 if j == i else 0 for j in range(l))] = n - (i + 1)
        report = bound_stiefel(P, RepE(l, qtable), n, kind="real")
        assert report.applicable
        assert report["witness"]["bound_printed"] == l
        assert report["witness"]["bound_dimension_consistent"] == 0
        assert report["bound"] == 0
        assert any("discrepancy" in note for note in report["notes"])
    for n in (2, 4, 7):
        P = RepT(1, {(1,): 1})
        report = bound_stiefel(P, RepT(1, {(1,): n - 1}), n, kind="complex")
        assert report.applicable and report["bound"] == 1
    print("\nACCEPTANCE 5 (stiefel bounds, exact integers): PASS")


# -- criterion 6 ---------------------------------------------------------------

def test_acceptance_6_symmetric_powers():
    start = time.monotonic()
    checked = 0
    for rank in (1, 2, 3):
        all_chars = vectors2(rank)
        tables = [{}]
        for size in range(1, 5):
            tables.extend(
                _multiset_to_table(combo) for combo in combinations_with_replacement(all_chars, size)
            )
        flag_maps = _flag_block_maps(rank)
        for table in tables:
            U = RepE(rank, table)
            labels = []
            for c, m in U.items():
                labels.extend([c] * m)
            for d in range(8):
                mine = sym_multiplicities(U, d).multiplicities()
                # oracle: direct monomial enumeration
                oracle = {}
                if d == 0:
                    oracle[(0,) * rank] = 1
                else:
                    for combo in combinations_with_replacement(range(len(labels)), d):
                        total = (0,) * rank
                        for idx in combo:
                            total = linalg.xor(total, labels[idx])
                        oracle[total] = oracle.get(total, 0) + 1
                assert mine == oracle
                expected_total = comb(U.dim + d - 1, d) if U.dim else (1 if d == 0 else 0)
                assert sum(mine.values()) == expected_total
                checked += 1
            # odd powers dominate the base blockwise, j <= 5
            powers = [sym_multiplicities(U, 2 * j - 1).multiplicities() for j in range(1, 6)]
            for _, mapping in flag_maps:
                base = _block_dims(U.multiplicities(), mapping, rank)
                if any(b == 0 for b in base):
                    continue
                for p in powers:
                    pd = _block_dims(p, mapping, rank)
                    assert all(a >= b for a, b in zip(pd, base))
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"criterion 6 took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 6 (symmetric powers vs oracle, {checked} tables, {elapsed:.1f}s): PASS")


# -- criterion 7 ---------------------------------------------------------------

def test_acceptance_7_circle_example():
    for a in range(1, 8):
        for b in range(1, 8):
            if gcd(a, b) != 1:
                continue
            for c in (1, 2, 3):
                m = circle_example(a, b, c)
                ap, bp = m.params["a_prime"], m.params["b_prime"]
                assert a * ap - b * bp == 1
                report = verify_equivariance(m, samples=10000, tol=1e-9, seed=0)
                assert report["equivariant"], f"(a,b,c)=({a},{b},{c}) residual {report['max_residual']}"
                assert report["zero_set_isolated"] is True
                assert report["min_norm"] > 0
                # negative control: first coordinate slot declared one weight too high
                slots = coordinate_weights(m.target)
                slots[0] = (slots[0][0] + 1,)
                corrupted_table = {}
                for w in slots:
                    corrupted_table[w] = corrupted_table.get(w, 0) + 1
                corrupted = MapDescription(
                    source=m.source, target=RepT(1, corrupted_table),
                    evaluator=m.evaluator, tag="user",
                )
                bad = verify_equivariance(corrupted, samples=10000, seed=0)
                assert bad["max_residual"] > 1e-3
    print("\nACCEPTANCE 7 (circle example, all coprime a,b <= 7, c <= 3): PASS")


# -- criterion 8 ---------------------------------------------------------------

def test_acceptance_8_join_assembly():
    rng = np.random.default_rng(0)

    # one part: the join equals the part pointwise
    U = RepT(1, {(2,): 1, (3,): 1})
    part = normalize_to_sphere(circle_example(2, 3, 1))
    joined1 = join_assemble({(1,): part})
    xs = random_unit_vectors(rng, 10000, U.dim)
    # pointwise agreement up to the radial round-trip at machine precision
    assert np.allclose(joined1.evaluator(xs), part.evaluator(xs), rtol=0, atol=1e-12)
    norms = np.linalg.norm(joined1.evaluator(xs), axis=1)
    assert float(np.max(np.abs(norms - 1.0))) < 1e-12

    # two parts
    p1 = normalize_to_sphere(embed_on_line(circle_example(2, 3, 1), (1, 0)))
    p2 = normalize_to_sphere(embed_on_line(circle_example(1, 2, 1), (0, 1)))
    joined2 = join_assemble({(1, 0): p1, (0, 1): p2})
    xs = random_unit_vectors(rng, 10000, joined2.source.dim)
    norms = np.linalg.norm(joined2.evaluator(xs), axis=1)
    assert float(np.max(np.abs(norms - 1.0))) < 1e-12

    # three parts, mixing identities and a normalized circle map
    p3 = identity_map(RepT(3, {(1, 1, 0): 1}))
    parts = {
        (1, 0, 0): normalize_to_sphere(embed_on_line(circle_example(3, 4, 1), (1, 0, 0))),
        (0, 0, 1): identity_map(RepT(3, {(0, 0, 1): 2})),
        (1, 1, 0): p3,
    }
    joined3 = join_assemble(parts)
    xs = random_unit_vectors(rng, 10000, joined3.source.dim)
    norms = np.linalg.norm(joined3.evaluator(xs), axis=1)
    assert float(np.max(np.abs(norms - 1.0))) < 1e-12
    print("\nACCEPTANCE 8 (join assembly, 1-3 parts, norm within 1e-12): PASS")


# -- criterion 9 ---------------------------------------------------------------

def _invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli_run(argv, out, err)
    return code, out.getvalue(), err.getvalue()


def test_acceptance_9_cli_round_trip(tmp_path):
    pair_doc = {
        "group": {"kind": "elem_abelian_2", "rank": 2},
        "module": {
            "entries": [
                {"char": [1, 0], "mult": 3},
                {"char": [0, 1], "mult": 1},
                {"char": [1, 1], "mult": 1},
            ]
        },
        "target": {"entries": [{"char": [1, 0], "mult": 1}]},
    }
    stiefel_doc = {
        "group": {"kind": "elem_abelian_2", "rank": 2},
        "module": {"entries": [{"char": [1, 0], "mult": 1}, {"char": [0, 1], "mult": 1}]},
        "target": {"entries": [{"char": [1, 0], "mult": 2}]},
        "n": 4,
    }
    stiefel_c_doc = {
        "group": {"kind": "torus", "rank": 1},
        "module": {"entries": [{"char": [1], "mult": 1}]},
        "target": {"entries": [{"char": [1], "mult": 2}]},
        "n": 3,
    }
    torus_pair_doc = {
        "group": {"kind": "torus", "rank": 1},
        "module": {"entries": [{"char": [1], "mult": 2}]},
        "target": {"entries": [{"char": [5], "mult": 1}]},
    }
    sym_doc = {
        "group": {"kind": "elem_abelian_2", "rank": 2},
        "module": {"entries": [{"char": [1, 0], "mult": 1}, {"char": [0, 1], "mult": 1}]},
    }
    mink_doc = {
        "group": {"kind": "elem_abelian_2", "rank": 1},
        "module": {"entries": [{"char": [1], "mult": 1}]},
        "target": {"entries": [{"char": [1], "mult": 2}]},
    }
    torus_doc = {
        "group": {"kind": "torus", "rank": 2},
        "module": {
            "entries": [
                {"char": [1, 0], "mult": 2},
                {"char": [2, 0], "mult": 1},
                {"char": [0, 1], "mult": 1},
            ]
        },
    }

    def path_of(name, doc):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        return str(p)

    invocations = [
        ["reduce", "--field", "F2", "--nvars", "2", "--poly", "T1^3+T2^3",
         "--gen", "T1^2", "--gen", "T2^2+T1*T2"],
        ["euler-check", "-i", path_of("pair.json", pair_doc)],
        ["flag-find", "-i", path_of("pair2.json", pair_doc)],
        ["bound", "--theorem", "free-zero-set", "-i", path_of("pair3.json", pair_doc)],
        ["bound", "--theorem", "stiefel-real", "-i", path_of("sr.json", stiefel_doc)],
        ["bound", "--theorem", "stiefel-complex", "-i", path_of("sc.json", stiefel_c_doc)],
        ["bound", "--theorem", "torus-interior", "-i", path_of("ti.json", torus_pair_doc)],
        ["bound", "--theorem", "torus-annulus", "-i", path_of("ta.json", torus_pair_doc)],
        ["flag-ring", "-n", "3", "-l", "2", "--verify", "--samples", "20"],
        ["sympow", "-i", path_of("sym.json", sym_doc), "-d", "3"],
        ["sympow", "-i", path_of("mink.json", mink_doc), "-d", "2"],
        ["torus-decompose", "-i", path_of("td.json", torus_doc)],
        ["torus-example", "-a", "2", "-b", "3", "-c", "1", "--samples", "2000"],
    ]
    for argv in invocations:
        code1, out1, err1 = _invoke(argv + ["--machine"])
        assert code1 == 0, f"{argv}: {err1}"
        parsed = json.loads(out1.strip())
        assert isinstance(parsed, dict)
        # re-serializing the parsed document reproduces the output byte for byte
        assert json.dumps(parsed, sort_keys=True, separators=(",", ":")) == out1.strip()
        code2, out2, err2 = _invoke(argv + ["--machine"])
        assert code2 == 0 and out2 == out1, f"non-deterministic output for {argv}"

    # machine output equals the in-memory result for representative commands
    U = RepE(2, {(1, 0): 3, (0, 1): 1, (1, 1): 1})
    V = RepE(2, {(1, 0): 1})
    _, out, _ = _invoke(["bound", "--theorem", "free-zero-set",
                         "-i", path_of("pair4.json", pair_doc), "--machine"])
    assert json.loads(out.strip()) == bound_free_zero_set(U, V).to_doc()
    _, out, _ = _invoke(["bound", "--theorem", "torus-interior",
                         "-i", path_of("ti2.json", torus_pair_doc), "--machine"])
    assert json.loads(out.strip()) == bound_torus(
        RepT(1, {(1,): 2}), RepT(1, {(5,): 1}), variant="interior"
    ).to_doc()
    _, out, _ = _invoke(["flag-ring", "-n", "3", "-l", "2", "--verify",
                         "--samples", "20", "--machine"])
    assert json.loads(out.strip())["verification"] == verify_flag_ring(3, 2, samples=20, seed=0).to_doc()
    print("\nACCEPTANCE 9 (cli machine round trips, byte-identical reruns): PASS")
