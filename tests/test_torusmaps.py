"""Tests for rational-line blocks of torus tables, the circle example, and join assembly."""

import random
from math import gcd

import numpy as np
import pytest

from eulerlab import torusmaps
from eulerlab.errors import InputError, ResourceLimitError
from eulerlab.reps import RepT, line_blocks
from eulerlab.torusmaps import (
    MAX_EQUIVARIANCE_SAMPLES,
    MapDescription,
    circle_example,
    coordinate_weights,
    embed_on_line,
    join_assemble,
    normalize_to_sphere,
    random_unit_vectors,
    verify_equivariance,
)
from tests_support_random import identity_map


# -- line blocks -------------------------------------------------------------------

def test_line_decomposition_rank_one():
    U = RepT(1, {(2,): 1, (3,): 1})
    lines = line_blocks(U)
    assert list(lines) == [(1,)]
    assert lines[(1,)].dim == 2 and U.fixed_dim == 0


def test_line_decomposition_groups_by_primitive():
    lines = line_blocks(RepT(2, {(1, 0): 2, (2, 0): 1, (0, 1): 1}))
    assert set(lines) == {(1, 0), (0, 1)}
    assert lines[(1, 0)].dim == 3
    assert lines[(0, 1)].dim == 1


def test_line_decomposition_empty():
    assert line_blocks(RepT(2, {})) == {}


def test_line_decomposition_partitions_dims():
    rng = random.Random(9)
    for _ in range(25):
        rank = rng.randint(1, 3)
        table = {}
        for _ in range(rng.randint(0, 5)):
            w = tuple(rng.randint(-3, 3) for _ in range(rank))
            table[w] = table.get(w, 0) + 1
        U = RepT(rank, table)
        lines = line_blocks(U)
        assert sum(block.dim for block in lines.values()) + U.fixed_dim == U.dim
        for lam, block in lines.items():
            from eulerlab.linalg import primitive

            assert all(primitive(w) == lam for w in block.support())


def test_line_decomposition_unimodular_equivariance():
    rng = random.Random(10)
    mats = [((1, 1), (0, 1)), ((0, 1), (1, 0)), ((2, 1), (1, 1)), ((1, 0), (3, 1))]
    for M in mats:
        assert abs(M[0][0] * M[1][1] - M[0][1] * M[1][0]) == 1
        for _ in range(10):
            table = {}
            for _ in range(rng.randint(1, 5)):
                w = tuple(rng.randint(-3, 3) for _ in range(2))
                table[w] = table.get(w, 0) + 1
            U = RepT(2, table)

            def apply(w):
                return tuple(sum(M[i][j] * w[j] for j in range(2)) for i in range(2))

            def relabel(rep):
                out = {}
                for w, m in rep.items():
                    out[apply(w)] = out.get(apply(w), 0) + m
                return RepT(2, out)

            from eulerlab.linalg import primitive

            relabeled_lines = {primitive(apply(lam)): relabel(block) for lam, block in line_blocks(U).items()}
            assert line_blocks(relabel(U)) == relabeled_lines


# -- circle example ----------------------------------------------------------------

def test_circle_example_cofactors():
    m = circle_example(2, 3, 1)
    assert m.params["a_prime"] == 2 and m.params["b_prime"] == 1
    assert m.source == RepT(1, {(2,): 1, (3,): 1})
    assert m.target == RepT(1, {(6,): 1, (1,): 1})
    m = circle_example(1, 1, 1)
    assert m.params["a_prime"] == 2 and m.params["b_prime"] == 1


def test_circle_example_rejects_common_factor():
    with pytest.raises(InputError, match="gcd"):
        circle_example(2, 4, 1)
    with pytest.raises(InputError):
        circle_example(0, 1, 1)


def test_cofactor_identity_exact():
    for a in range(1, 8):
        for b in range(1, 8):
            if gcd(a, b) != 1:
                continue
            for c in (1, 2, 3):
                m = circle_example(a, b, c)
                ap, bp = m.params["a_prime"], m.params["b_prime"]
                assert a * ap - b * bp == 1
                assert ap >= 1 and bp >= 1
                # a' is the least cofactor that leaves b' >= 1
                assert ap == next(x for x in range(1, a * b + b + 2) if (a * x - 1) % b == 0 and a * x - 1 >= b)


@pytest.mark.parametrize("call, message", [
    (lambda: embed_on_line(circle_example(2, 3, 1), (2, 4)), "line must be a primitive, sign-normalized vector"),
    (lambda: embed_on_line(embed_on_line(circle_example(2, 3, 1), (1, 1)), (1, 1)), "embed_on_line relabels rank-1 maps"),
    (lambda: embed_on_line(identity_map(RepT(1, {(-1,): 1})), (1, 1)), "embed_on_line requires positive weights"),
    (lambda: join_assemble({}), "join needs at least one part"),
    (lambda: join_assemble({(2,): identity_map(RepT(1, {(2,): 1}))}), "line (2,) is not primitive and sign-normalized"),
    (lambda: verify_equivariance(identity_map(RepT(1, {}))), "the source representation is zero"),
], ids=["embed-line", "embed-rank", "embed-weight", "join-empty", "join-line", "zero-source"])
def test_maps_and_lines_outside_the_domain_are_refused(call, message):
    with pytest.raises(InputError) as refused:
        call()
    assert str(refused.value) == message


def test_circle_example_evaluator_formula():
    m = circle_example(2, 3, 1)
    src = coordinate_weights(m.source)
    tgt = coordinate_weights(m.target)
    z = np.zeros(2, dtype=complex)
    z[src.index((2,))] = x = 0.5
    z[src.index((3,))] = y = 0.25j
    out = m.evaluator(z)
    assert np.allclose(out[tgt.index((6,))], x ** 3 + y ** 2)
    assert np.allclose(out[tgt.index((1,))], x ** 2 * np.conj(y))


def test_circle_example_equivariance():
    m = circle_example(2, 3, 1)
    report = verify_equivariance(m, samples=2000, tol=1e-9, seed=0)
    assert report["equivariant"] and report["max_residual"] < 1e-9
    assert report["min_norm"] > 0
    assert report["zero_set_isolated"] is True
    assert report["passed"]


@pytest.mark.parametrize("key", ["a", "b", "a_prime", "b_prime"])
def test_circle_example_rejects_non_integer_exponent(key):
    m = circle_example(2, 3, 1)
    m.params[key] = 2.7
    with pytest.raises(InputError, match=f"^{key} must be an integer, got 2.7"):
        verify_equivariance(m, samples=10, seed=0)


def test_identity_map_zero_residual():
    U = RepT(2, {(1, 0): 1, (0, 1): 2})
    report = verify_equivariance(identity_map(U), samples=500, seed=1)
    assert report["max_residual"] == 0.0


def test_corrupted_weight_fails_loudly():
    m = circle_example(2, 3, 1)
    wrong = RepT(1, {(7,): 1, (1,): 1})  # first target weight off by one
    corrupted = MapDescription(
        source=m.source, target=wrong, evaluator=m.evaluator, tag="user"
    )
    report = verify_equivariance(corrupted, samples=2000, seed=0)
    assert not report["equivariant"]
    assert report["max_residual"] > 1e-3


def test_map_descriptions_do_not_share_params():
    U = RepT(1, {(1,): 1})
    first = MapDescription(U, U, None, "user")
    second = MapDescription(source=U, target=U, evaluator=None, tag="user")
    first.params["seen"] = True
    assert first.params == {"seen": True} and second.params == {}


def test_copies_leave_the_original_untouched():
    m = circle_example(2, 3, 1)
    doc, params, evaluator = m.to_doc(), dict(m.params), m.evaluator
    lifted = embed_on_line(m, (1, 2))
    normalized = normalize_to_sphere(m)
    lifted.params["seen"] = normalized.params["seen"] = True
    assert m.to_doc() == doc and m.params == params and m.evaluator is evaluator
    assert lifted.params == {**params, "line": [1, 2], "seen": True}
    assert lifted.source == RepT(2, {(2, 4): 1, (3, 6): 1}) and lifted.evaluator is evaluator
    assert normalized.params == {**params, "normalized": True, "seen": True}
    assert normalized.source is m.source and normalized.tag == m.tag and normalized.evaluator is not evaluator


# -- join assembly -----------------------------------------------------------------

def test_single_part_join_is_the_part():
    U = RepT(1, {(2,): 1, (3,): 1})
    part = identity_map(U)
    joined = join_assemble({(1,): part})
    rng = np.random.default_rng(0)
    xs = random_unit_vectors(rng, 200, U.dim)
    assert np.allclose(joined.evaluator(xs), part.evaluator(xs))


def test_join_two_lines_blockwise():
    U1 = RepT(2, {(1, 0): 1})
    U2 = RepT(2, {(0, 1): 1})
    joined = join_assemble({(1, 0): identity_map(U1), (0, 1): identity_map(U2)})
    layout = coordinate_weights(joined.source)
    assert layout == [(0, 1), (1, 0)]
    # input fully in line 1: the other block is skipped
    x = np.zeros(2, dtype=complex)
    idx = layout.index((1, 0))
    x[idx] = 1.0
    out = joined.evaluator(x)
    assert np.allclose(out, x)


def test_join_norm_one_with_circle_parts():
    p1 = normalize_to_sphere(embed_on_line(circle_example(2, 3, 1), (1, 0)))
    p2 = normalize_to_sphere(embed_on_line(circle_example(1, 2, 1), (0, 1)))
    joined = join_assemble({(1, 0): p1, (0, 1): p2})
    rng = np.random.default_rng(7)
    xs = random_unit_vectors(rng, 2000, joined.source.dim)
    norms = np.linalg.norm(joined.evaluator(xs), axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12
    # the balanced two-block input stays on the sphere
    x = np.zeros(joined.source.dim, dtype=complex)
    src_layout = coordinate_weights(joined.source)
    i1 = src_layout.index((2, 0))
    i2 = src_layout.index((0, 1))
    x[i1] = np.sqrt(2) / 2
    x[i2] = np.sqrt(2) / 2
    assert abs(np.linalg.norm(joined.evaluator(x)) - 1.0) < 1e-12
    report = verify_equivariance(joined, samples=2000, seed=3)
    assert report["equivariant"]


def test_join_rejects_non_sphere_part():
    raw = circle_example(2, 3, 1)  # maps into the target space, not its sphere
    with pytest.raises(InputError, match="assembly error"):
        join_assemble({(1,): raw})


def test_join_rejects_off_line_weights():
    U = RepT(2, {(1, 1): 1})
    with pytest.raises(InputError, match="off-line"):
        join_assemble({(1, 0): identity_map(U)})


def test_join_rejects_parts_of_another_rank():
    parts = {(1, 0): identity_map(RepT(2, {(1, 0): 1})), (0, 1): identity_map(RepT(3, {(0, 1, 0): 1}))}
    with pytest.raises(InputError, match="rank mismatch: 2 vs 3"):
        join_assemble(parts)


def test_torus_helpers_reject_the_zero_line():
    with pytest.raises(InputError, match="zero vector spans no line"):
        embed_on_line(circle_example(2, 3, 1), (0, 0))
    with pytest.raises(InputError, match="zero vector spans no line"):
        join_assemble({(0, 0): identity_map(RepT(2, {(1, 0): 1}))})


def test_normalized_circle_part_is_sphere_map():
    part = normalize_to_sphere(circle_example(3, 2, 2))
    rng = np.random.default_rng(11)
    xs = random_unit_vectors(rng, 500, 2)
    norms = np.linalg.norm(part.evaluator(xs), axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12
    report = verify_equivariance(part, samples=1000, seed=5)
    assert report["equivariant"]


# -- tolerance and sample-count validation -------------------------------------------

BAD_TOLERANCES = [float("nan"), float("inf"), float("-inf"), 0, 0.0, -1e-9, "x", None, True, False]


@pytest.mark.parametrize("tol", BAD_TOLERANCES)
def test_verify_equivariance_rejects_bad_tolerance(tol):
    with pytest.raises(InputError, match="tolerance must be a finite positive number"):
        verify_equivariance(circle_example(2, 3, 1), samples=10, tol=tol)


def test_tolerance_accepts_any_finite_positive_real():
    from fractions import Fraction

    m = circle_example(2, 3, 1)
    for tol in (1, Fraction(1, 10**6), np.float64(1e-9)):
        assert verify_equivariance(m, samples=10, tol=tol)["equivariant"]


@pytest.mark.parametrize("abc, tol", [((2, 3, 10**6), 1e-9), ((1, 5, 10**5), 1e-9), ((2, 3, 1), 5e-14), ((2, 3, 2**53), 1e-30)])
def test_weights_whose_rounding_reaches_the_tolerance_are_refused(monkeypatch, abc, tol):
    monkeypatch.setattr(torusmaps, "random_unit_vectors", lambda *args: pytest.fail("sampled the map"))
    with pytest.raises(InputError, match="too large to sample at tolerance"):
        verify_equivariance(circle_example(*abc), samples=10, tol=tol)


def test_rounding_below_the_tolerance_is_sampled():
    # c = 1000: weights up to 6000 round to about 6e-12, under the default tol
    assert verify_equivariance(circle_example(2, 3, 1000), samples=200)["passed"]
    # a tol rounding reaches at weight 1 fails at every weight, and is checked
    report = verify_equivariance(circle_example(3, 2, 2), samples=200, tol=1e-30)
    assert not report["equivariant"] and report.failure == "hypothesis failure: equivariance verification failed"


def test_verify_equivariance_sample_cap():
    with pytest.raises(ResourceLimitError, match="above the limit"):
        verify_equivariance(circle_example(2, 3, 1), samples=MAX_EQUIVARIANCE_SAMPLES + 1)
