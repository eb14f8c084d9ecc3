"""Tests for the command-line front end: exit codes, round trips, determinism."""

import argparse
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from eulerlab import cohomology, polyring, reps, sympow, torusmaps
from eulerlab.bounds import bound_free_zero_set
from eulerlab.cli import build_parser, run
from eulerlab.errors import MAX_GROUP_RANK
from eulerlab.polyring import MAX_EXPONENT
from eulerlab.reps import rep_from_doc


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out, err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def example_doc(tmp_path):
    doc = {
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
    path = tmp_path / "example.json"
    path.write_text(json.dumps(doc))
    return str(path), doc


# -- exit codes -----------------------------------------------------------------

def test_bound_free_zero_set_exit_zero(example_doc):
    path, _ = example_doc
    code, out, err = invoke(["bound", "--theorem", "free-zero-set", "-i", path])
    assert code == 0
    assert "bound: 4" in out


def test_flag_ring_verify_exit_zero():
    code, out, err = invoke(["flag-ring", "-n", "3", "-l", "2", "--verify"])
    assert code == 0
    assert "quotient-dimension: pass" in out


def test_torus_example_gcd_input_error():
    code, out, err = invoke(["torus-example", "-a", "2", "-b", "4", "-c", "1"])
    assert code == 2
    assert "gcd(a,b) must be 1" in err


def test_hypothesis_failure_exit_one(tmp_path):
    doc = {
        "group": {"kind": "elem_abelian_2", "rank": 1},
        "module": {"entries": [{"char": [0], "mult": 2}]},
        "target": {"entries": [{"char": [1], "mult": 1}]},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = invoke(["bound", "--theorem", "free-zero-set", "-i", str(path)])
    assert code == 1
    assert "hypothesis failure" in err
    assert "dim U - dim V > dim U^E" in err


def test_flag_find_hypothesis_failure_exit_one(tmp_path):
    doc = {
        "group": {"kind": "elem_abelian_2", "rank": 1},
        "module": {"entries": [{"char": [1], "mult": 1}]},
        "target": {"entries": [{"char": [1], "mult": 1}]},
    }
    path = tmp_path / "equal.json"
    path.write_text(json.dumps(doc))
    code, out, err = invoke(["flag-find", "-i", str(path)])
    assert code == 1
    assert "hypothesis failure" in err


def test_unknown_subcommand_exit_two():
    code, out, err = invoke(["bogus"])
    assert code == 2
    assert out == ""
    assert "invalid choice: 'bogus'" in err


def test_help_goes_to_the_given_stdout(capsys):
    code, out, err = invoke(["reduce", "--help"])
    assert code == 0
    assert out.startswith("usage: eulerlab reduce") and err == ""
    assert capsys.readouterr() == ("", "")


def test_failed_flag_ring_verification_exit_one(monkeypatch):
    # n!/(n-l)! is never 0, so the quotient-dimension item fails and no other
    monkeypatch.setattr(cohomology, "perm", lambda n, l: 0)
    code, out, err = invoke(["flag-ring", "-n", "3", "-l", "2", "--verify", "--machine"])
    assert code == 1
    assert err == "hypothesis failure: quotient-dimension\n"
    names = ["symmetrized-relations-identity", "top-class-nonzero", "quotient-dimension",
             "random-tables-euler-nonzero (25 samples)"]
    items = [{"name": name, "status": "fail" if name == "quotient-dimension" else "pass"} for name in names]
    assert json.loads(out)["verification"] == {"items": items, "passed": False}


def test_malformed_json_exit_two(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, out, err = invoke(["euler-check", "-i", str(path)])
    assert code == 2
    assert "error:" in err


def test_unknown_document_field_rejected(tmp_path):
    path = tmp_path / "extra.json"
    path.write_text(json.dumps({"group": {"kind": "torus", "rank": 1}, "module": {"entries": []}, "wat": 1}))
    code, out, err = invoke(["torus-decompose", "-i", str(path)])
    assert code == 2
    assert "wat" in err


@pytest.mark.parametrize("argv, doc", [
    (["bound", "--theorem", "torus-interior"],
     {"group": {"kind": "torus", "rank": 2},
      "module": {"entries": [{"char": [1.2, 1], "mult": 3.7}]},
      "target": {"entries": [{"char": [1, 0], "mult": 1}]}}),
    (["bound", "--theorem", "free-zero-set"],
     {"group": {"kind": "elem_abelian_2", "rank": 1},
      "module": {"entries": [{"char": [1], "mult": True}]},
      "target": {"entries": []}}),
    (["euler-check"],
     {"group": {"kind": "elem_abelian_2", "rank": "1"},
      "module": {"entries": [{"char": [1], "mult": 2}]},
      "target": {"entries": []}}),
    (["euler-check"],
     {"group": {"kind": "elem_abelian_2", "rank": 1},
      "module": {"entries": [{"char": [1], "mult": 2}]},
      "target": {"entries": []},
      "flag": {"dual_basis": [[1.0]]}}),
    (["reduce", "--field", "F2", "--poly", "T1", "--gen", "T1^2"], {"nvars": 1.0}),
    (["bound", "--theorem", "stiefel-real"],
     {"group": {"kind": "elem_abelian_2", "rank": 1},
      "module": {"entries": [{"char": [1], "mult": 1}]},
      "target": {"entries": []}, "n": 3.5}),
    (["sympow"],
     {"group": {"kind": "elem_abelian_2", "rank": 1},
      "module": {"entries": [{"char": [1], "mult": 1}]}, "degree": "2"}),
])
def test_non_integer_document_fields_exit_two(argv, doc):
    code, out, err = invoke(argv + ["--inline", json.dumps(doc), "--machine"])
    assert code == 2 and out == ""
    assert "must be an integer" in err


def test_euler_check_finds_flag_the_single_path_misses():
    # the best first character (0,1) dead-ends; the search backtracks to (1,0)
    doc = {
        "group": {"kind": "elem_abelian_2", "rank": 2},
        "module": {"entries": [{"char": [0, 1], "mult": 2}, {"char": [1, 0], "mult": 1}]},
        "target": {"entries": [{"char": [1, 1], "mult": 1}]},
    }
    out, raw = machine_doc(["euler-check", "--inline", json.dumps(doc)])
    assert out["flag"] == {"dual_basis": [[1, 0], [0, 1]]}
    assert out["nonvanishing"] is True


def test_flag_search_node_limit_exit_two(monkeypatch):
    from eulerlab import flagsearch

    monkeypatch.setattr(flagsearch, "MAX_CHAIN_NODES", 1)
    doc = {
        "group": {"kind": "elem_abelian_2", "rank": 2},
        "module": {"entries": [{"char": [1, 0], "mult": 2}, {"char": [0, 1], "mult": 1}]},
        "target": {"entries": []},
    }
    code, out, err = invoke(["euler-check", "--inline", json.dumps(doc)])
    assert code == 2
    assert "chain nodes" in err


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1e-9"])
def test_torus_example_bad_tolerance_exit_two(tol):
    code, out, err = invoke(["torus-example", "-a", "2", "-b", "3", "-c", "1", f"--tol={tol}"])
    assert code == 2
    assert out == ""
    assert "tolerance must be a finite positive number" in err


@pytest.mark.parametrize("argv, cap", [
    (["flag-ring", "-n", "3", "-l", "2", "--verify"], cohomology.MAX_FLAG_RING_SAMPLES),
    (["torus-example", "-a", "2", "-b", "3", "-c", "1"], torusmaps.MAX_EQUIVARIANCE_SAMPLES),
])
def test_sample_cap_exit_two(argv, cap):
    code, out, err = invoke(argv + ["--samples", str(cap + 1)])
    assert code == 2
    assert out == ""
    assert f"above the limit of {cap}" in err


def test_unreduced_euler_class_term_limit_exit_two(monkeypatch):
    from eulerlab import reps

    # the first factor of block 2, T1 + T2, already has two terms
    doc = {
        "group": {"kind": "elem_abelian_2", "rank": 2},
        "module": {"entries": [{"char": [1, 0], "mult": 1}, {"char": [1, 1], "mult": 2}, {"char": [0, 1], "mult": 2}]},
        "target": {"entries": [{"char": [0, 1], "mult": 1}]},
        "flag": {"dual_basis": [[1, 0], [0, 1]]},
    }
    monkeypatch.setattr(reps, "MAX_EULER_TERMS", 1)
    code, out, err = invoke(["euler-check", "--inline", json.dumps(doc)])
    assert code == 2
    assert out == ""
    assert "above the limit of 1" in err


def test_high_multiplicity_all_ones_label_builds():
    # the block relation (T1+T2+T3+T4)^512 is built by squaring, at four terms throughout
    doc = {
        "group": {"kind": "elem_abelian_2", "rank": 4},
        "module": {"entries": [
            {"char": [1, 0, 0, 0], "mult": 1}, {"char": [0, 1, 0, 0], "mult": 1},
            {"char": [0, 0, 1, 0], "mult": 1}, {"char": [1, 1, 1, 1], "mult": 512},
        ]},
        "target": {"entries": [{"char": [1, 1, 1, 1], "mult": 256}]},
        "flag": {"dual_basis": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]},
    }
    code, out, err = invoke(["euler-check", "--inline", json.dumps(doc)])
    assert code == 0
    assert "nonvanishing: yes" in out
    assert "certificate: T4^256" in out
    assert "T1^512+T2^512+T3^512+T4^512" in out
    pair = {key: doc[key] for key in ("group", "module", "target")}
    code, out, err = invoke(["bound", "--theorem", "free-zero-set", "--inline", json.dumps(pair)])
    assert code == 0
    assert "bound: 259" in out


def test_flag_ring_negative_samples_exit_two():
    code, out, err = invoke(["flag-ring", "-n", "3", "-l", "2", "--verify", "--samples", "-5"])
    assert code == 2
    assert out == ""
    assert "sample count must be nonnegative" in err


@pytest.mark.parametrize("samples, message", [
    ("-5", "sample count must be nonnegative"),
    (str(cohomology.MAX_FLAG_RING_SAMPLES + 1), "above the limit"),
])
def test_flag_ring_samples_checked_without_verify(samples, message):
    code, out, err = invoke(["flag-ring", "-n", "3", "-l", "2", "--samples", samples])
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("verify", [[], ["--verify"]])
def test_flag_ring_relation_size_limit_exit_two(verify):
    start = time.monotonic()
    code, out, err = invoke(["flag-ring", "-n", "40", "-l", "12"] + verify)
    assert time.monotonic() - start < 2
    assert code == 2
    assert f"above the limit of {cohomology.MAX_RELATION_TERMS}" in err


def test_flag_ring_verify_refuses_the_symmetrized_class_exit_two():
    # the relations fit the limit; the symmetrized class of item (a) does not
    start = time.monotonic()
    code, out, err = invoke(["flag-ring", "-n", "40", "-l", "5", "--verify", "--samples", "0"])
    assert time.monotonic() - start < 0.5
    assert code == 2 and out == ""
    assert err == (
        "error: the symmetrized flag-ring class would have 135751 terms, "
        f"above the limit of {cohomology.MAX_RELATION_TERMS}\n"
    )


def test_flag_ring_verify_builds_the_presentation_once(monkeypatch):
    calls = []
    build = cohomology.flag_ring

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(cohomology, "flag_ring", counted)
    code, out, err = invoke(["flag-ring", "-n", "4", "-l", "2", "--verify", "--samples", "3"])
    assert (code, err) == (0, "")
    assert "quotient-dimension: pass" in out
    assert len(calls) == 1
    code, out, err = invoke(["flag-ring", "-n", "40", "-l", "5", "--verify", "--samples", "0"])
    assert code == 2 and "symmetrized flag-ring class" in err
    assert len(calls) == 1


@pytest.mark.parametrize("bounds, message", [
    ("40,40,40,40", "--verify applies to the unbounded flag ring only"),
    # a bad bound is reported before the --verify refusal
    ("40,40,41,41", "bound n_3 = 41 violates 3 <= n_3 <= 40"),
    ("40,40,40", "need 4 bounds, got 3"),
])
def test_flag_ring_verify_with_bounds_refused_before_building(monkeypatch, bounds, message):
    calls = []
    monkeypatch.setattr(cohomology, "flag_ring", lambda *args, **kwargs: calls.append(args))
    argv = ["flag-ring", "-n", "40", "-l", "4", "--bounds", bounds, "--verify", "--samples", "0"]
    code, out, err = invoke(argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert calls == []


def test_flag_ring_verify_large_n_at_one_step():
    # no relation-size limit applies at l = 1; the dimension check must not cost n!
    start = time.monotonic()
    code, out, err = invoke(["flag-ring", "-n", "1000000", "-l", "1", "--verify", "--samples", "0"])
    assert time.monotonic() - start < 2
    assert code == 0, err
    assert "quotient-dimension: pass" in out


@pytest.mark.parametrize("doc, message", [
    ({"field": "F2", "nvars": 1, "poly": 5, "system": ["T1^2"]}, "polynomial text must be a string, got 5"),
    ({"field": "F2", "nvars": 1, "poly": "T1", "system": "T1^2"}, "document field system must be a list"),
])
def test_reduce_rejects_non_text_polynomials(doc, message):
    code, out, err = invoke(["reduce", "--inline", json.dumps(doc)])
    assert code == 2 and out == ""
    assert message in err


# a digit of another script is not a digit of the text format: T1^3 written
# with an Arabic-Indic three, a coefficient in it, and T1 with an Arabic-Indic one
@pytest.mark.parametrize("text, factor", [
    ("T1^\u0663", "T1^\u0663"), ("\u0663*T1", "\u0663"), ("T\u0661", "T\u0661"),
])
@pytest.mark.parametrize("where", ["poly", "system"])
def test_reduce_refuses_non_ascii_digits(text, factor, where):
    poly, gen = (text, "T1^5") if where == "poly" else ("T1", text)
    flags = ["reduce", "--field", "Q", "--nvars", "1", f"--poly={poly}", f"--gen={gen}"]
    doc = {"field": "Q", "nvars": 1, "poly": poly, "system": [gen]}
    for argv in (flags, ["reduce", "--inline", json.dumps(doc)]):
        code, out, err = invoke(argv)
        assert (code, out) == (2, ""), argv
        assert f"unrecognized factor {factor!r}" in err


# int options and --bounds items are an optional sign and ASCII digits only
@pytest.mark.parametrize("argv, message", [
    (["flag-ring", "-n", "1_0", "-l", "2"], "argument -n: invalid int value: '1_0'"),
    (["flag-ring", "-n", "\u0664", "-l", "2"], "argument -n: invalid int value: '\u0664'"),
    (["flag-ring", "-n", " 4", "-l", "2"], "argument -n: invalid int value: ' 4'"),
    (["flag-ring", "-n", "4", "-l", "2", "--bounds", "\u0662,\u0664"],
     "--bounds expects comma-separated integers: invalid int value: '\u0662'"),
    (["flag-ring", "-n", "4", "-l", "2", "--bounds", "2,4_0"],
     "--bounds expects comma-separated integers: invalid int value: '4_0'"),
    (["torus-example", "-a", "2", "-b", "3", "-c", "1", "--samples", "1_0"],
     "argument --samples: invalid int value: '1_0'"),
    (["torus-example", "-a", "2", "-b", "3", "-c", "1", "--seed", "\u0667"],
     "argument --seed: invalid int value: '\u0667'"),
])
def test_cli_integers_are_ascii(argv, message):
    code, out, err = invoke(argv + ["--machine"])
    assert (code, out) == (2, "")
    assert message in err


def test_cli_integers_take_a_sign():
    doc, _ = machine_doc(["flag-ring", "-n", "+4", "-l", "2", "--bounds", "+2,4"])
    assert (doc["n"], doc["bounds"]) == (4, [2, 4])


@pytest.mark.parametrize("seed", ["1_0", "\u0667", " 7"])
def test_seed_environment_is_ascii(monkeypatch, seed):
    monkeypatch.setenv("EULERLAB_SEED", seed)
    code, out, err = invoke(["torus-example", "-a", "2", "-b", "3", "-c", "1", "--samples", "10"])
    assert (code, out) == (2, "")
    assert f"EULERLAB_SEED must be an integer, got {seed!r}" in err


# CPython converts at most 4300 digits between int and str; the CLI keeps that
# limit and answers past it with exit 2, not a traceback
_BIG = "9" * 5000
_REDUCE = ["reduce", "--field", "Q", "--nvars", "1", "--gen", "T1^2"]
_BIG_TORUS_PAIR = json.dumps({
    "group": {"kind": "torus", "rank": 1},
    "module": {"entries": [{"char": [1], "mult": 10001}]},
    "target": {"entries": [{"char": [3], "mult": 10000}]},
})
# multiplicities within the digit limit whose sums are not
_NINES = int("9" * 4300)
_NINES_E2 = json.dumps({
    "group": {"kind": "elem_abelian_2", "rank": 2},
    "module": {"entries": [{"char": [1, 0], "mult": _NINES}, {"char": [0, 1], "mult": _NINES}]},
    "target": {"entries": []},
})
_NINES_TORUS = {
    "group": {"kind": "torus", "rank": 1},
    "module": {"entries": [{"char": [1], "mult": _NINES}, {"char": [2], "mult": _NINES}]},
}
# an n within the digit limit whose Stiefel bound is not
_STIEFEL_LINES = {
    kind: json.dumps({
        "group": {"kind": kind, "rank": 2},
        "module": {"entries": [{"char": [1, 0], "mult": 1}, {"char": [0, 1], "mult": 1}]},
        "target": {"entries": []},
    })
    for kind in ("elem_abelian_2", "torus")
}
# S^100 of 10^50 copies of one character has multiplicities of about 4840 digits
_WIDE_SYMPOW = json.dumps({
    "group": {"kind": "elem_abelian_2", "rank": 1},
    "module": {"entries": [{"char": [1], "mult": 10**50}]},
})


@pytest.mark.parametrize("argv, seed, message", [
    (_REDUCE + ["--poly", f"{_BIG}*T1"], None, "a coefficient has more than 4300 digits"),
    (_REDUCE + ["--poly", f"1/{_BIG}"], None, "a coefficient has more than 4300 digits"),
    (_REDUCE + ["--poly", f"T{_BIG}"], None, "a variable index or exponent has more than 4300 digits"),
    (_REDUCE + ["--poly", f"T1^{_BIG}"], None, "a variable index or exponent has more than 4300 digits"),
    (["euler-check", "--inline", f'{{"group": {{"kind": "torus", "rank": {_BIG}}}}}'], None,
     "invalid JSON input: an integer has more than 4300 digits"),
    (["flag-ring", "-n", "3", "-l", "1", "--bounds", _BIG], None,
     "--bounds expects comma-separated integers: an integer has more than 4300 digits"),
    (["flag-ring", "-n", _BIG, "-l", "1"], None, "argument -n: an integer has more than 4300 digits"),
    (["torus-example", "-a", "2", "-b", "3", "-c", "1", "--samples", "10"], _BIG, "EULERLAB_SEED must be an integer"),
    (["reduce", "--field", "Q", "--nvars", "1", "--poly", "T1^100000", "--gen", "T1^2-3"], None,
     "a coefficient has more than 4300 digits"),
    (["bound", "--theorem", "torus-interior", "--inline", _BIG_TORUS_PAIR], None,
     "a coefficient has more than 4300 digits"),
    (["euler-check", "--inline", "[" * 100000], None, "invalid JSON input: nested too deeply"),
    (["bound", "--theorem", "free-zero-set", "--inline", _NINES_E2], None,
     "multiplicity for (1, 0) has more than 4000 digits"),
    (["bound", "--theorem", "torus-annulus", "--inline", json.dumps({**_NINES_TORUS, "target": {"entries": []}})],
     None, "multiplicity for (1,) has more than 4000 digits"),
    (["torus-decompose", "--inline", json.dumps(_NINES_TORUS)], None,
     "multiplicity for (1,) has more than 4000 digits"),
    (["sympow", "-d", "100", "--inline", _WIDE_SYMPOW], None, "multiplicity for (0,) has more than 4000 digits"),
    (["bound", "--theorem", "stiefel-real", "-n", str(_NINES), "--inline", _STIEFEL_LINES["elem_abelian_2"]], None,
     "n has more than 4000 digits"),
    (["bound", "--theorem", "stiefel-complex", "-n", str(_NINES), "--inline", _STIEFEL_LINES["torus"]], None,
     "n has more than 4000 digits"),
], ids=["coefficient", "denominator", "index", "exponent", "json", "bounds", "option", "seed",
        "printed-normal-form", "printed-certificate", "json-depth", "free-zero-set-evidence",
        "torus-annulus-bound", "torus-decompose-dim", "sympow-table", "stiefel-real-bound",
        "stiefel-complex-bound"])
def test_input_or_output_past_the_digit_limit_exit_two(monkeypatch, argv, seed, message):
    if seed is not None:
        monkeypatch.setenv("EULERLAB_SEED", seed)
    code, out, err = invoke(argv)
    assert (code, out) == (2, "")
    assert "error: " in err and message in err and "Traceback" not in err


def test_non_utf8_input_document_exit_two(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"group": "\u00e9"}'.encode("latin-1"))
    code, out, err = invoke(["euler-check", "-i", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read input document: 'utf-8' codec can't decode")


# -- machine mode round trips ------------------------------------------------------

def machine_doc(argv):
    code, out, err = invoke(argv + ["--machine"])
    assert code == 0, err
    lines = [ln for ln in out.splitlines() if ln]
    assert len(lines) == 1
    return json.loads(lines[0]), out


def test_machine_reduce_round_trip():
    argv = [
        "reduce",
        "--field",
        "F2",
        "--nvars",
        "2",
        "--poly",
        "T1^3+T2^3",
        "--gen",
        "T1^2",
        "--gen",
        "T2^2+T1*T2",
    ]
    doc, raw = machine_doc(argv)
    from eulerlab.polyring import F2, TriangularSystem, format_poly, parse_poly, reduce as nf

    system = TriangularSystem([parse_poly("T1^2", F2, 2), parse_poly("T2^2+T1*T2", F2, 2)])
    expected = nf(parse_poly("T1^3+T2^3", F2, 2), system)
    assert doc["normal_form"] == format_poly(expected)
    assert doc["zero_in_quotient"] == expected.is_zero()
    _, raw2 = machine_doc(argv)
    assert raw == raw2


def test_machine_bound_round_trip(example_doc):
    path, docin = example_doc
    doc, raw = machine_doc(["bound", "--theorem", "free-zero-set", "-i", path])
    U = rep_from_doc(docin, key="module")
    V = rep_from_doc(docin, key="target")
    assert doc == bound_free_zero_set(U, V).to_doc()
    _, raw2 = machine_doc(["bound", "--theorem", "free-zero-set", "-i", path])
    assert raw == raw2


def test_machine_euler_check_round_trip(example_doc):
    path, docin = example_doc
    doc, raw = machine_doc(["euler-check", "-i", path])
    assert doc["nonvanishing"] is True
    assert doc["certificate"]
    _, raw2 = machine_doc(["euler-check", "-i", path])
    assert raw == raw2


def test_machine_flag_ring_round_trip():
    doc, raw = machine_doc(["flag-ring", "-n", "4", "-l", "2", "--verify", "--samples", "10"])
    pres = cohomology.flag_ring(4, 2)
    assert doc["relations"] == pres.relation_texts()
    assert doc["quotient_dim"] == pres.quotient_dimension
    assert doc["verification"] == cohomology.verify_flag_ring(4, 2, samples=10, seed=0).to_doc()
    _, raw2 = machine_doc(["flag-ring", "-n", "4", "-l", "2", "--verify", "--samples", "10"])
    assert raw == raw2


def test_machine_sympow_table(tmp_path):
    doc_in = {
        "group": {"kind": "elem_abelian_2", "rank": 2},
        "module": {"entries": [{"char": [1, 0], "mult": 1}, {"char": [0, 1], "mult": 1}]},
    }
    path = tmp_path / "u.json"
    path.write_text(json.dumps(doc_in))
    doc, raw = machine_doc(["sympow", "-i", str(path), "-d", "3"])
    power = sympow.sym_multiplicities(rep_from_doc(doc_in), 3)
    assert doc["total_dim"] == power.dim
    assert {tuple(e["char"]): e["mult"] for e in doc["entries"]} == power.multiplicities()


def test_machine_sympow_min_k(tmp_path):
    doc_in = {
        "group": {"kind": "elem_abelian_2", "rank": 1},
        "module": {"entries": [{"char": [1], "mult": 1}]},
        "target": {"entries": [{"char": [1], "mult": 2}]},
    }
    path = tmp_path / "uk.json"
    path.write_text(json.dumps(doc_in))
    doc, raw = machine_doc(["sympow", "-i", str(path), "-d", "2"])
    assert doc["k"] == 4  # max(m+1, m+d) with m=2, d=2
    assert doc["claims"]["per_degree_at_least_base"] is True


def test_machine_torus_decompose(tmp_path):
    doc_in = {
        "group": {"kind": "torus", "rank": 2},
        "module": {
            "entries": [
                {"char": [1, 0], "mult": 2},
                {"char": [2, 0], "mult": 1},
                {"char": [0, 1], "mult": 1},
            ]
        },
    }
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc_in))
    doc, raw = machine_doc(["torus-decompose", "-i", str(path)])
    assert doc == {
        "fixed_dim": 0,
        "lines": [
            {"line": [0, 1], "dim": 1, "entries": [{"char": [0, 1], "mult": 1}]},
            {"line": [1, 0], "dim": 3, "entries": [{"char": [1, 0], "mult": 2}, {"char": [2, 0], "mult": 1}]},
        ],
    }


def test_machine_torus_example_round_trip():
    argv = ["torus-example", "-a", "2", "-b", "3", "-c", "1", "--samples", "500"]
    doc, raw = machine_doc(argv)
    m = torusmaps.circle_example(2, 3, 1)
    expected = torusmaps.verify_equivariance(m, samples=500, seed=0).to_doc()
    assert doc["verification"] == expected
    _, raw2 = machine_doc(argv)
    assert raw == raw2


def test_machine_flag_find_round_trip(example_doc):
    path, docin = example_doc
    doc, raw = machine_doc(["flag-find", "-i", path])
    assert doc["subgroup_basis"] == []
    assert doc["module_block_dims"] == [3, 2]
    _, raw2 = machine_doc(["flag-find", "-i", path])
    assert raw == raw2


# -- seeds --------------------------------------------------------------------------

def test_seed_environment_override(monkeypatch):
    monkeypatch.setenv("EULERLAB_SEED", "7")
    doc, _ = machine_doc(["torus-example", "-a", "2", "-b", "3", "-c", "1", "--samples", "100"])
    assert doc["verification"]["seed"] == 7
    monkeypatch.setenv("EULERLAB_SEED", "junk")
    code, out, err = invoke(["torus-example", "-a", "2", "-b", "3", "-c", "1"])
    assert code == 2


def test_seed_flag_beats_environment(monkeypatch):
    monkeypatch.setenv("EULERLAB_SEED", "7")
    doc, _ = machine_doc(
        ["torus-example", "-a", "2", "-b", "3", "-c", "1", "--samples", "100", "--seed", "3"]
    )
    assert doc["verification"]["seed"] == 3


def test_inline_document():
    inline = json.dumps(
        {
            "group": {"kind": "torus", "rank": 1},
            "module": {"entries": [{"char": [2], "mult": 1}, {"char": [3], "mult": 1}]},
        }
    )
    code, out, err = invoke(["torus-decompose", "--inline", inline])
    assert code == 0
    assert "line [1]" in out


# -- each subcommand accepts only the inputs it reads ------------------------------

_PAIR = {
    "group": {"kind": "elem_abelian_2", "rank": 2},
    "module": {"entries": [{"char": [1, 0], "mult": 3}, {"char": [0, 1], "mult": 1}, {"char": [1, 1], "mult": 1}]},
    "target": {"entries": [{"char": [1, 0], "mult": 1}]},
}
_TORUS_MODULE = {"group": {"kind": "torus", "rank": 1}, "module": {"entries": [{"char": [2], "mult": 1}]}}
_REDUCE_DOC = {"field": "F2", "nvars": 1, "poly": "T1", "system": ["T1^2"]}

# argv that each non-sampling subcommand accepts (exit 0)
_NON_SAMPLING = {
    "reduce": ["reduce", "--inline", json.dumps(_REDUCE_DOC)],
    "euler-check": ["euler-check", "--inline", json.dumps(_PAIR)],
    "flag-find": ["flag-find", "--inline", json.dumps(_PAIR)],
    "bound": ["bound", "--theorem", "free-zero-set", "--inline", json.dumps(_PAIR)],
    "sympow": ["sympow", "-d", "2", "--inline", json.dumps(_PAIR)],
    "torus-decompose": ["torus-decompose", "--inline", json.dumps(_TORUS_MODULE)],
}
_SAMPLING = {
    "flag-ring": ["flag-ring", "-n", "3", "-l", "2", "--verify", "--samples", "5"],
    "torus-example": ["torus-example", "-a", "2", "-b", "3", "-c", "1", "--samples", "50"],
}


def test_each_subcommand_declares_the_options_and_fields_it_reads():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    document = {("--machine",), ("-i", "--input"), ("--inline",)}
    seeded = {("--machine",), ("--seed",)}
    pair = {"group", "module", "target"}
    expected = {
        "reduce": (document | {("--field",), ("--nvars",), ("--poly",), ("--gen",)},
                   {"field", "nvars", "poly", "system"}),
        "euler-check": (document, pair | {"flag"}),
        "flag-find": (document, pair),
        "bound": (document | {("--theorem",), ("-n",)}, pair | {"n"}),
        "flag-ring": (seeded | {("-n",), ("-l",), ("--bounds",), ("--verify",), ("--samples",)}, set()),
        "sympow": (document | {("-d", "--degree")}, pair | {"flag", "degree"}),
        "torus-decompose": (document, {"group", "module"}),
        "torus-example": (seeded | {("-a",), ("-b",), ("-c",), ("--samples",), ("--tol",)}, set()),
    }
    declared = {
        name: ({tuple(a.option_strings) for a in p._actions if a.dest != "help"}, set(p.get_default("fields") or ()))
        for name, p in sub.choices.items()
    }
    assert declared == expected
    assert sum(len(options) for options, _ in declared.values()) == 39
    assert sum(len(fields) for _, fields in declared.values()) == 22


@pytest.mark.parametrize("command", sorted(_NON_SAMPLING))
def test_seed_option_rejected_where_nothing_is_sampled(command):
    code, out, err = invoke(_NON_SAMPLING[command])
    assert code == 0, err
    code, out, err = invoke(_NON_SAMPLING[command] + ["--seed", "3"])
    assert code == 2 and out == ""
    assert "unrecognized arguments: --seed 3" in err


@pytest.mark.parametrize("command", sorted(_SAMPLING))
@pytest.mark.parametrize("option", [["-i", "doc.json"], ["--inline", "not json"]])
def test_document_options_rejected_where_no_document_is_read(command, option):
    code, out, err = invoke(_SAMPLING[command] + option)
    assert code == 2 and out == ""
    assert f"unrecognized arguments: {' '.join(option)}" in err


@pytest.mark.parametrize("argv, doc, field", [
    (["bound", "--theorem", "free-zero-set"], {**_PAIR, "flag": {"dual_basis": [[1, 0], [0, 1]]}}, "flag"),
    (["torus-decompose"], {**_TORUS_MODULE, "target": {"entries": []}}, "target"),
    (["reduce"], {**_REDUCE_DOC, "group": {"kind": "elem_abelian_2", "rank": 1}}, "group"),
])
def test_foreign_document_field_exit_two(argv, doc, field):
    code, out, err = invoke(argv + ["--inline", json.dumps(doc)])
    assert code == 2 and out == ""
    assert f"unknown fields ['{field}']" in err


_RANK1_MODULE = {"group": {"kind": "elem_abelian_2", "rank": 1}, "module": {"entries": [{"char": [1], "mult": 1}]}}


@pytest.mark.parametrize("argv, doc, message", [
    # a malformed flag (two covectors at rank 1) that a run without a target never reads
    (["sympow", "-d", "2"], {**_RANK1_MODULE, "flag": {"dual_basis": [[1], [1]]}},
     "document field flag is not read by sympow without a target"),
    (["bound", "--theorem", "free-zero-set", "-n", "7"], _PAIR,
     "-n is not read by bound --theorem free-zero-set"),
    (["bound", "--theorem", "free-zero-set"], {**_PAIR, "n": "junk"},
     "document field n is not read by bound --theorem free-zero-set"),
    (["bound", "--theorem", "torus-interior", "-n", "7"], {**_PAIR, "group": {"kind": "torus", "rank": 2}},
     "-n is not read by bound --theorem torus-interior"),
])
def test_input_unread_by_the_mode_exit_two(argv, doc, message):
    code, out, err = invoke(argv + ["--inline", json.dumps(doc)])
    assert code == 2 and out == ""
    assert message in err


# flag-ring takes --seed but samples only with --verify
@pytest.mark.parametrize("argv", [
    _NON_SAMPLING["reduce"], _NON_SAMPLING["bound"], ["flag-ring", "-n", "3", "-l", "2"],
], ids=["reduce", "bound", "flag-ring"])
def test_seed_environment_ignored_where_nothing_is_sampled(monkeypatch, argv):
    monkeypatch.setenv("EULERLAB_SEED", "junk")
    code, out, err = invoke(argv)
    assert code == 0, err


# -- a document of the other group kind -------------------------------------------

def _kind_doc(kind, **extra):
    entries = [{"char": [1, 0], "mult": 1}, {"char": [0, 1], "mult": 1}]
    return {"group": {"kind": kind, "rank": 2}, "module": {"entries": entries}, **extra}


_E_NOUN, _T_NOUN = "representations of (Z/2)^l", "torus representations"


@pytest.mark.parametrize("argv, doc, noun", [
    (["bound", "--theorem", "stiefel-real", "-n", "5"], _kind_doc("torus", target={"entries": []}), _E_NOUN),
    (["bound", "--theorem", "stiefel-complex", "-n", "5"], _kind_doc("elem_abelian_2", target={"entries": []}), _T_NOUN),
    (["bound", "--theorem", "free-zero-set"], _kind_doc("torus", target={"entries": []}), _E_NOUN),
    (["bound", "--theorem", "torus-interior"], _kind_doc("elem_abelian_2", target={"entries": []}), _T_NOUN),
    (["flag-find"], _kind_doc("torus", target={"entries": []}), _E_NOUN),
    (["torus-decompose"], _kind_doc("elem_abelian_2"), _T_NOUN),
    (["sympow", "-d", "2"], _kind_doc("torus"), _E_NOUN),
    (["sympow", "-d", "1"], _kind_doc("torus", target={"entries": []}), _E_NOUN),
    (["sympow", "-d", "1"], _kind_doc("torus", target={"entries": []}, flag={"dual_basis": [[1, 0], [0, 1]]}), _E_NOUN),
])
def test_document_of_the_other_kind_exit_two(argv, doc, noun):
    code, out, err = invoke(argv + ["--inline", json.dumps(doc)])
    assert (code, out, err) == (2, "", f"error: expected {noun}\n")


# -- a resource limit and a closed stdout --------------------------------------------

def test_sympow_degree_cap_exit_two():
    module = {key: _PAIR[key] for key in ("group", "module")}
    code, out, err = invoke(["sympow", "-d", str(sympow.MAX_SYM_DEGREE + 1), "--inline", json.dumps(module)])
    assert code == 2 and out == ""
    assert f"above the limit of {sympow.MAX_SYM_DEGREE}" in err


def _ranked_doc(kind, rank, *keys):
    return {"group": {"kind": kind, "rank": rank}, **{key: {"entries": []} for key in keys}}


_RANKED = [
    (["euler-check"], "elem_abelian_2", ("module", "target")),
    (["flag-find"], "elem_abelian_2", ("module", "target")),
    (["bound", "--theorem", "free-zero-set"], "elem_abelian_2", ("module", "target")),
    (["bound", "--theorem", "stiefel-real", "-n", "5"], "elem_abelian_2", ("module", "target")),
    (["bound", "--theorem", "stiefel-complex", "-n", "5"], "torus", ("module", "target")),
    (["bound", "--theorem", "torus-interior"], "torus", ("module", "target")),
    (["bound", "--theorem", "torus-annulus"], "torus", ("module", "target")),
    (["sympow", "-d", "2"], "elem_abelian_2", ("module",)),
    (["sympow", "-d", "1"], "elem_abelian_2", ("module", "target")),
    (["torus-decompose"], "torus", ("module",)),
]

@pytest.mark.parametrize("argv, kind, keys", _RANKED)
@pytest.mark.parametrize("rank", [MAX_GROUP_RANK + 1, 10**9, 10**20])
def test_group_rank_above_the_limit_exit_two(monkeypatch, argv, kind, keys, rank):
    monkeypatch.setattr(reps._RepBase, "__init__", lambda *args, **kwargs: pytest.fail("built a table"))
    code, out, err = invoke(argv + ["--inline", json.dumps(_ranked_doc(kind, rank, *keys))])
    assert (code, out, err) == (2, "", f"error: group rank {rank} is above the limit of {MAX_GROUP_RANK}\n")


def test_group_rank_at_the_limit_is_read():
    doc = _ranked_doc("torus", MAX_GROUP_RANK, "module")
    doc["module"]["entries"] = [{"char": [2] + [0] * (MAX_GROUP_RANK - 1), "mult": 1}]
    out, _ = machine_doc(["torus-decompose", "--inline", json.dumps(doc)])
    assert out["fixed_dim"] == 0 and [line["line"][0] for line in out["lines"]] == [1]


@pytest.mark.parametrize("rank", [17, MAX_GROUP_RANK])
def test_euler_check_flag_search_at_a_high_rank(rank):
    # the F2 flag search lists no covectors, so its time does not double per rank
    units = [[int(i == j) for j in range(rank)] for i in range(rank)]
    doc = _ranked_doc("elem_abelian_2", rank, "module", "target")
    for key, mult in (("module", 2), ("target", 1)):
        doc[key]["entries"] = [{"char": u, "mult": mult} for u in units]
    out, _ = machine_doc(["euler-check", "--inline", json.dumps(doc)])
    assert out["nonvanishing"] is True
    assert out["certificate"] == "*".join(f"T{j}" for j in range(1, rank + 1))
    assert out["quotient_dim"] == 2**rank


@pytest.mark.parametrize("nvars", [MAX_GROUP_RANK + 1, 10**9, 10**20])
@pytest.mark.parametrize("where", ["flag", "document"])
def test_reduce_variable_count_above_the_limit_exit_two(monkeypatch, nvars, where):
    monkeypatch.setattr(polyring.Poly, "__init__", lambda *args, **kwargs: pytest.fail("built a polynomial"))
    argv = ["reduce", "--field", "F2", "--poly", "T1", "--gen", "T1^2"]
    argv += ["--nvars", str(nvars)] if where == "flag" else ["--inline", json.dumps({"nvars": nvars})]
    code, out, err = invoke(argv)
    assert (code, out, err) == (2, "", f"error: variable count {nvars} is above the limit of {MAX_GROUP_RANK}\n")


def test_reduce_variable_count_at_the_limit_is_read():
    gens = [arg for j in range(1, MAX_GROUP_RANK + 1) for arg in ("--gen", f"T{j}^2")]
    out, _ = machine_doc(["reduce", "--field", "F2", "--nvars", str(MAX_GROUP_RANK), "--poly", f"T{MAX_GROUP_RANK}^3+T{MAX_GROUP_RANK}+1"] + gens)
    assert out["normal_form"] == f"1+T{MAX_GROUP_RANK}"


@pytest.mark.parametrize("n", [MAX_EXPONENT + 1, 10**20])
@pytest.mark.parametrize("verify", [[], ["--verify"]])
def test_flag_ring_degree_above_the_exponent_limit_exit_two(n, verify):
    code, out, err = invoke(["flag-ring", "-n", str(n), "-l", "1"] + verify)
    assert (code, out) == (2, "")
    assert err == f"error: exponent in monomial ({n},) is above the limit of {MAX_EXPONENT}\n"


def test_flag_ring_refuses_a_long_flag_without_listing_its_steps():
    # relation 2 of the 10^12-step flags in R^(10^12) already has 10^12 terms
    start = time.monotonic()
    code, out, err = invoke(["flag-ring", "-n", str(10**12), "-l", str(10**12)])
    assert time.monotonic() - start < 1
    assert (code, out) == (2, "")
    assert err == f"error: a flag-ring relation would have {10**12} terms, above the limit of {cohomology.MAX_RELATION_TERMS}\n"


@pytest.mark.parametrize("abc, tol", [((2, 3, 10**6), "1e-9"), ((10**20, 3, 1), "1e-9"), ((2, 3, 2**53), "1e-30")])
def test_torus_example_weights_beyond_float_rounding_exit_two(monkeypatch, abc, tol):
    monkeypatch.setattr(torusmaps, "random_unit_vectors", lambda *args: pytest.fail("sampled the map"))
    a, b, c = abc
    code, out, err = invoke(["torus-example", "-a", str(a), "-b", str(b), "-c", str(c), "--tol", tol])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: weights up to {a * b * c} (1-norm) are too large to sample at tolerance {float(tol)}")


def test_closed_stdout_exits_one_without_traceback():
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = [sys.executable, "-c", "from eulerlab.cli import main; main()", *_SAMPLING["flag-ring"], "--machine"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()  # the reader is gone before the interpreter has started
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert err == b""
