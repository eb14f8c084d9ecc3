"""Golden test: the exact stdout, stderr and exit code of every subcommand.

Each case in CASES runs twice, as text and with --machine, and must match
`cli_golden.json` byte for byte.  The file was recorded from the CLI and is
only rewritten on a deliberate change of output, by running this module:

    PYTHONPATH=src python tests/test_cli_golden.py

torus-example prints sampled float residuals, so its cases are checked
against `verify_equivariance(...)` run on the same map and seed instead.
"""

import io
import json
from pathlib import Path

import pytest

from eulerlab import torusmaps
from eulerlab.cli import run

GOLDEN = Path(__file__).with_name("cli_golden.json")

E, T = "elem_abelian_2", "torus"


def _doc(kind, rank, module, target=None, **extra):
    doc = {
        "group": {"kind": kind, "rank": rank},
        "module": {"entries": [{"char": list(c), "mult": m} for c, m in module]},
    }
    if target is not None:
        doc["target"] = {"entries": [{"char": list(c), "mult": m} for c, m in target]}
    doc.update(extra)
    return json.dumps(doc)


_WORKED = _doc(E, 2, [((1, 0), 3), ((0, 1), 1), ((1, 1), 1)], [((1, 0), 1)])
_LINES = [((1, 0), 1), ((0, 1), 1)]
_TORUS_PAIR = _doc(T, 2, [((1, 0), 2), ((1, 1), 2)], [((2, 0), 1), ((1, -1), 1)])


def _bound(theorem, doc, *extra):
    return ["bound", "--theorem", theorem, *extra, "--inline", doc]


CASES = {
    "reduce-f2": ["reduce", "--field", "F2", "--nvars", "2", "--poly", "T1^3+T2^3",
                  "--gen", "T1^2", "--gen", "T2^2+T1*T2"],
    "reduce-q": ["reduce", "--field", "Q", "--nvars", "2", "--poly=1/2*T1^3-T2^2+3",
                 "--gen=2*T1^2+1", "--gen=T2^2-T1*T2"],
    "reduce-document": ["reduce", "--inline",
                        json.dumps({"field": "Q", "nvars": 1, "poly": "T1^3", "system": ["T1^2"]})],
    "euler-check-search": ["euler-check", "--inline", _WORKED],
    "euler-check-flag": ["euler-check", "--inline",
                         json.dumps({**json.loads(_WORKED), "flag": {"dual_basis": [[0, 1], [1, 0]]}})],
    "euler-check-torus": ["euler-check", "--inline", _TORUS_PAIR],
    "euler-check-no-flag": ["euler-check", "--inline", _doc(E, 1, [((1,), 1)], [((1,), 1)])],
    "flag-find": ["flag-find", "--inline", _WORKED],
    "flag-find-subgroup": ["flag-find", "--inline", _doc(E, 2, [((1, 0), 2)], [])],
    "bound-free": _bound("free-zero-set", _WORKED),
    "bound-free-subgroup": _bound("free-zero-set", _doc(E, 2, [((1, 0), 2)], [])),
    "bound-free-gap": _bound("free-zero-set", _doc(E, 1, [((0,), 2)], [((1,), 1)])),
    "bound-free-fixed-target": _bound("free-zero-set", _doc(E, 1, [((1,), 3)], [((0,), 1)])),
    "bound-stiefel-real": _bound("stiefel-real", _doc(E, 2, _LINES, [((1, 0), 1), ((1, 1), 1)]), "-n", "4"),
    "bound-stiefel-real-n": _bound("stiefel-real", _doc(E, 2, _LINES, [((1, 0), 1)], n=2)),
    "bound-stiefel-real-mults": _bound("stiefel-real", _doc(E, 2, [((1, 0), 2)], [((1, 0), 1)]), "-n", "4"),
    "bound-stiefel-complex": _bound("stiefel-complex", _doc(T, 2, _LINES, [((1, 0), 1), ((1, 1), 1)]), "-n", "3"),
    "bound-stiefel-complex-caps": _bound("stiefel-complex", _doc(T, 2, _LINES, [((1, 0), 3)]), "-n", "3"),
    "bound-torus-interior": _bound("torus-interior", _TORUS_PAIR),
    "bound-torus-interior-no-flag": _bound("torus-interior", _doc(T, 1, [((1,), 1)], [((2,), 1)])),
    "bound-torus-interior-fixed": _bound("torus-interior", _doc(T, 1, [((0,), 1), ((1,), 2)], [((2,), 1)])),
    "bound-torus-annulus": _bound("torus-annulus", _doc(T, 1, [((1,), 2)], [((1,), 1)])),
    "bound-torus-annulus-gap": _bound("torus-annulus", _doc(T, 1, [((1,), 1)], [((1,), 1)])),
    "bound-torus-annulus-fixed-target": _bound("torus-annulus", _doc(T, 1, [((1,), 2)], [((0,), 1)])),
    "flag-ring": ["flag-ring", "-n", "4", "-l", "2"],
    "flag-ring-bounds": ["flag-ring", "-n", "4", "-l", "3", "--bounds", "2,3,4"],
    "flag-ring-verify": ["flag-ring", "-n", "4", "-l", "2", "--verify", "--samples", "10", "--seed", "5"],
    "sympow-table": ["sympow", "-d", "3", "--inline", _doc(E, 2, _LINES)],
    "sympow-min-k": ["sympow", "-d", "2", "--inline", _doc(E, 2, _LINES, [((1, 0), 2), ((1, 1), 1)])],
    "sympow-min-k-flag": ["sympow", "--inline",
                          _doc(E, 1, [((1,), 1)], [((1,), 2)], degree=2, flag={"dual_basis": [[1]]})],
    "torus-decompose": ["torus-decompose", "--inline",
                        _doc(T, 2, [((1, 0), 2), ((2, 0), 1), ((0, 1), 1), ((0, 0), 1), ((-1, 2), 1)])],
}

MODES = {"text": [], "machine": ["--machine"]}


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out, err)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def record():
    golden = {name: {mode: invoke(argv + extra) for mode, extra in MODES.items()}
              for name, argv in CASES.items()}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", CASES)
def test_cli_output_is_golden(golden, name, mode):
    assert invoke(CASES[name] + MODES[mode]) == golden[name][mode]


@pytest.mark.parametrize("abc, seed, tol, passed", [
    ((2, 3, 1), 4, torusmaps.DEFAULT_EQUIVARIANCE_TOL, True),
    ((1, 1, 3), 0, torusmaps.DEFAULT_EQUIVARIANCE_TOL, True),
    ((3, 2, 2), 0, 1e-30, False),
])
@pytest.mark.parametrize("mode", MODES)
def test_torus_example_output(abc, seed, tol, passed, mode):
    a, b, c = abc
    argv = ["torus-example", "-a", str(a), "-b", str(b), "-c", str(c), "--samples", "200",
            "--seed", str(seed), "--tol", str(tol)]
    m = torusmaps.circle_example(a, b, c)
    report = torusmaps.verify_equivariance(m, samples=200, tol=tol, seed=seed)
    assert report.passed is passed
    if mode == "text":
        source = [[a * c], [b * c]] if a != b else [[a * c]]
        target = [[a * b * c], [c]] if a * b != 1 else [[c]]
        p = m.params
        stdout = (f"map weights: source {source}, target {target}\n"
                  f"cofactors: a'={p['a_prime']}, b'={p['b_prime']}\n" + report.to_text() + "\n")
    else:
        doc = {"map": m.to_doc(), "verification": report.to_doc()}
        stdout = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    stderr = "" if passed else "hypothesis failure: equivariance verification failed\n"
    assert invoke(argv + MODES[mode]) == {"exit": 0 if passed else 1, "stdout": stdout, "stderr": stderr}


if __name__ == "__main__":
    record()
