"""Tests for the certified bound calculators and their reports."""

import io
import json
import random
from types import SimpleNamespace

import pytest

from eulerlab import bounds, linalg
from eulerlab.bounds import bound_free_zero_set, bound_stiefel, bound_torus
from eulerlab.cli import run
from eulerlab.cohomology import QuotientClass, presentation
from eulerlab.errors import HypothesisError
from eulerlab.polyring import F2, Poly, format_poly, reduce
from eulerlab.reps import (
    RepE,
    RepT,
    Subgroup,
    decompose,
    fixed_subrep,
    flag_from_doc,
    rep_entries_doc,
)
from tests_support_random import vectors2

A, B, AB = (1, 0), (0, 1), (1, 1)


# -- free zero set --------------------------------------------------------------

def test_free_zero_set_classical():
    rep = bound_free_zero_set(RepE(1, {(1,): 5}), RepE(1, {(1,): 2}))
    assert rep.applicable and rep["bound"] == 3


def test_free_zero_set_worked_example():
    rep = bound_free_zero_set(RepE(2, {A: 3, B: 1, AB: 1}), RepE(2, {A: 1}))
    assert rep["bound"] == 4
    assert rep["witness"]["subgroup_basis"] == []
    assert rep["witness"]["module_block_dims"] == [3, 2]


def test_free_zero_set_not_applicable():
    rep = bound_free_zero_set(RepE(1, {(0,): 2}), RepE(1, {(1,): 1}))
    assert not rep.applicable and rep["bound"] is None
    assert any(h["status"] == "fail" for h in rep["hypotheses"])


def test_free_zero_set_uses_subgroup_reduction():
    rep = bound_free_zero_set(RepE(2, {A: 2}), RepE(2, {}))
    assert rep["bound"] == 2
    assert rep["witness"]["subgroup_basis"] == [[0, 1]]
    assert rep["witness"]["quotient_rank"] == 1


def test_free_zero_set_report_serializes():
    rep = bound_free_zero_set(RepE(2, {A: 3, B: 1, AB: 1}), RepE(2, {A: 1}))
    doc = rep.to_doc()
    json.dumps(doc)
    assert doc["bound"] == 4
    assert doc["hypotheses"][0]["status"] == "pass"
    assert "bound: 4" in rep.to_text()


def test_free_zero_set_witness_recomputes():
    U = RepE(2, {A: 3, B: 1, AB: 1})
    V = RepE(2, {A: 1})
    rep = bound_free_zero_set(U, V)
    F = Subgroup(2, rep["witness"]["subgroup_basis"])
    U1, V1 = fixed_subrep(U, F), fixed_subrep(V, F)
    flag = flag_from_doc(rep["witness"]["flag"], "elem_abelian_2", rep["witness"]["quotient_rank"])
    assert list(decompose(U1, flag).dims) == rep["witness"]["module_block_dims"]
    assert list(decompose(V1, flag).dims) == rep["witness"]["target_block_dims"]
    pres = presentation(U1, flag)
    assert pres.relation_texts() == rep["witness"]["relations"]
    from eulerlab.reps import euler_poly

    assert format_poly(reduce(euler_poly(V1, flag), pres)) == rep["witness"]["certificate"]


@pytest.mark.filterwarnings("ignore:fixed part of dimension")
def test_free_zero_set_invariant_under_relabeling():
    rng = random.Random(13)
    for _ in range(25):
        rank = rng.randint(1, 3)
        chars = vectors2(rank)
        tu, tv = {}, {}
        for c in chars:
            mu = rng.randint(0, 2)
            if mu:
                tu[c] = mu
            if any(c):
                mv = rng.randint(0, 1)
                if mv:
                    tv[c] = mv
        U, V = RepE(rank, tu), RepE(rank, tv)
        # random invertible matrix over F2
        while True:
            M = [tuple(rng.randint(0, 1) for _ in range(rank)) for _ in range(rank)]
            if linalg._rank(F2, M, rank) == rank:
                break

        def relabel(rep):
            table = {}
            for c, m in rep.items():
                image = tuple(linalg.dot2(row, c) for row in M)
                table[image] = table.get(image, 0) + m
            return RepE(rank, table)

        base = bound_free_zero_set(U, V)
        moved = bound_free_zero_set(relabel(U), relabel(V))
        assert base.applicable == moved.applicable
        assert base["bound"] == moved["bound"]


def test_free_zero_set_trivial_summand_shifts_bound():
    U = RepE(2, {A: 3, B: 1, AB: 1})
    V = RepE(2, {A: 1})
    base = bound_free_zero_set(U, V)
    with pytest.warns(UserWarning, match="fixed part of dimension"):
        bigger = bound_free_zero_set(U.direct_sum(RepE(2, {(0, 0): 1})), V)
    assert bigger.applicable == base.applicable
    assert bigger["bound"] == base["bound"] + 1


# -- stiefel ---------------------------------------------------------------------

def _standard_p(l):
    return RepE(l, {tuple(1 if j == i else 0 for j in range(l)): 1 for i in range(l)})


def test_stiefel_real_sphere_case():
    n = 4
    P = _standard_p(1)
    Q = RepE(1, {(1,): n - 1})
    rep = bound_stiefel(P, Q, n, kind="real")
    assert rep.applicable
    assert rep["witness"]["bound_dimension_consistent"] == 0
    assert rep["witness"]["bound_printed"] == 1
    assert rep["bound"] == 0
    assert any("discrepancy" in note for note in rep["notes"])
    assert any("non-empty" in note for note in rep["notes"])


def test_stiefel_real_tautological_target():
    # Q_i = R^(n-i) (x) P_i saturates every cap: printed bound l, certified 0
    for l, n in [(1, 3), (2, 4), (3, 5)]:
        P = _standard_p(l)
        qtable = {}
        for i in range(l):
            char = tuple(1 if j == i else 0 for j in range(l))
            qtable[char] = n - (i + 1)
        Q = RepE(l, qtable)
        rep = bound_stiefel(P, Q, n, kind="real")
        assert rep.applicable
        assert rep["witness"]["bound_printed"] == l
        assert rep["witness"]["bound_dimension_consistent"] == 0


def test_stiefel_real_hypothesis_failures():
    P = _standard_p(2)
    too_big = RepE(2, {A: 4})
    rep = bound_stiefel(P, too_big, 4, kind="real")
    assert not rep.applicable
    rep = bound_stiefel(P, RepE(2, {A: 1}), 2, kind="real")  # n == l
    assert not rep.applicable
    bad_p = RepE(2, {A: 2})
    rep = bound_stiefel(bad_p, RepE(2, {A: 1}), 4, kind="real")
    assert not rep.applicable


def test_stiefel_complex_circle_case():
    for n in (2, 3, 5):
        P = RepT(1, {(1,): 1})
        Q = RepT(1, {(1,): n - 1})
        rep = bound_stiefel(P, Q, n, kind="complex")
        assert rep.applicable and rep["bound"] == 1
        assert "bound_printed" not in rep["witness"]


def test_stiefel_complex_rank_two():
    P = RepT(2, {(1, 0): 1, (0, 1): 1})
    Q = RepT(2, {(1, 0): 1})
    n = 3
    rep = bound_stiefel(P, Q, n, kind="complex")
    assert rep.applicable
    assert rep["bound"] == 2 * 2 * n - 4 - 2 * Q.dim


# -- torus ------------------------------------------------------------------------

def test_torus_interior_rank_one():
    rep = bound_torus(RepT(1, {(1,): 2}), RepT(1, {(5,): 1}), variant="interior")
    assert rep.applicable and rep["bound"] == 2
    assert rep["witness"]["certificate"]


def test_torus_annulus_rank_one():
    rep = bound_torus(RepT(1, {(1,): 2}), RepT(1, {(1,): 1}), variant="annulus")
    assert rep.applicable and rep["bound"] == 1
    assert any(h["status"] == "assumed" for h in rep["hypotheses"])


def test_torus_annulus_equal_dims_not_applicable():
    U = RepT(1, {(1,): 2})
    rep = bound_torus(U, U, variant="annulus")
    assert not rep.applicable


def test_torus_preconditions():
    rep = bound_torus(RepT(1, {(0,): 1}), RepT(1, {(1,): 1}), variant="interior")
    assert not rep.applicable
    rep = bound_torus(RepT(1, {(1,): 1}), RepT(1, {(0,): 1}), variant="annulus")
    assert not rep.applicable


def test_torus_interior_witness_recomputes():
    U = RepT(2, {(1, 0): 2, (0, 1): 2})
    V = RepT(2, {(1, 1): 1})
    rep = bound_torus(U, V, variant="interior")
    assert rep.applicable and rep["bound"] == 2 * (4 - 1)
    flag = flag_from_doc(rep["witness"]["flag"], "torus", 2)
    assert list(decompose(U, flag).dims) == rep["witness"]["module_block_dims"]
    assert list(decompose(V, flag).dims) == rep["witness"]["target_block_dims"]


def test_torus_interior_needs_backtracking():
    # the best first line (0,1) leaves gap 3 - 2 - 2 < 0 on the second step
    U = RepT(2, {(1, 0): 3, (0, 1): 3})
    V = RepT(2, {(3, 0): 2, (1, 3): 2})
    rep = bound_torus(U, V, variant="interior")
    assert rep.applicable and rep["bound"] == 4
    assert rep["witness"]["flag"] == {"dual_basis": [[1, 0], [0, 1]]}
    assert rep["witness"]["certificate"] == "81*T1^2*T2^2"


# -- the certificate's failure branches ----------------------------------------------
# Each fault replaces one callee by its name in eulerlab.bounds.  These branches are
# what stand between a broken certificate and a wrong "bound: N", so each must leave
# the bound unset, name the failed item, and make CLI `bound` exit 1.

def _inadmissible_flag(monkeypatch):
    monkeypatch.setattr(bounds, "decompose", lambda rep, flag: SimpleNamespace(dims=(1,) * flag.rank))
    return "flag with dim U_i > dim V_i for every i"


def _euler_check_raises(monkeypatch):
    def raise_hypothesis(U, V, flag):
        raise HypothesisError("forced by the test")

    monkeypatch.setattr(bounds, "euler_nonvanishing", raise_hypothesis)
    return "euler class nonvanishing"


def _zero_normal_form(monkeypatch):
    real = bounds.euler_nonvanishing

    def vanishing(U, V, flag):
        _, cls = real(U, V, flag)
        return False, QuotientClass(cls.presentation, Poly(cls.poly.field, cls.poly.nvars))

    monkeypatch.setattr(bounds, "euler_nonvanishing", vanishing)
    return "survives in the quotient presentation"


def _no_subgroup_or_flag(monkeypatch):
    def raise_hypothesis(U, V):
        raise HypothesisError("forced by the test")

    monkeypatch.setattr(bounds, "reduced_flag_search", raise_hypothesis)
    return "subgroup/flag construction"


_FAULT_PAIRS = {
    "free-zero-set": (RepE(2, {A: 3, B: 1, AB: 1}), RepE(2, {A: 1})),
    "torus-interior": (RepT(2, {(1, 0): 2, (0, 1): 2}), RepT(2, {(1, 1): 1})),
}
_THEOREMS = {
    "free-zero-set": bound_free_zero_set,
    "torus-interior": lambda U, V: bound_torus(U, V, variant="interior"),
}


@pytest.mark.parametrize("theorem, fault", [
    ("free-zero-set", _inadmissible_flag),
    ("free-zero-set", _euler_check_raises),
    ("free-zero-set", _zero_normal_form),
    ("free-zero-set", _no_subgroup_or_flag),
    ("torus-interior", _inadmissible_flag),
    ("torus-interior", _euler_check_raises),
    ("torus-interior", _zero_normal_form),
])
def test_certificate_failure_refuses_the_bound(monkeypatch, theorem, fault):
    U, V = _FAULT_PAIRS[theorem]
    assert _THEOREMS[theorem](U, V)["bound"] is not None
    item = fault(monkeypatch)

    rep = _THEOREMS[theorem](U, V)
    assert rep["bound"] is None and not rep.applicable
    failed = [h["description"] for h in rep["hypotheses"] if h["status"] == "fail"]
    assert len(failed) == 1 and item in failed[0]
    assert rep.failure == f"hypothesis failure: {failed[0]}"

    doc = {
        "group": {"kind": U.kind, "rank": U.rank},
        "module": {"entries": rep_entries_doc(U)},
        "target": {"entries": rep_entries_doc(V)},
    }
    out, err = io.StringIO(), io.StringIO()
    code = run(["bound", "--theorem", theorem, "--inline", json.dumps(doc), "--machine"], out, err)
    assert code == 1
    assert err.getvalue() == f"hypothesis failure: {failed[0]}\n"
    assert json.loads(out.getvalue())["bound"] is None
