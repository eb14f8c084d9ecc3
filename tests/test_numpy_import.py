"""numpy is loaded only when a torus sphere map is sampled, `fractions` only
at the first rational that may not be integral, and the CLI's start-up loads
neither, nor `dataclasses`, `inspect`, `decimal`, `numbers` or `__future__`.

A fresh interpreter imports `eulerlab` and `eulerlab.cli` and builds the
parser; none of those modules may be in `sys.modules`.  It runs the F2
subcommands, which leave `fractions` unloaded, then a Q `reduce` with a 3/2
coefficient, which loads it, then the torus subcommands that sample no map;
numpy must still be absent, and `dataclasses` and `inspect` too.
`torus-example` then samples the circle map and loads numpy.  Further fresh
interpreters check that the lazily loaded paths refuse and accept what they
did when `fractions` and `numbers` loaded at import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

PAIR = {
    "group": {"kind": "elem_abelian_2", "rank": 2},
    "module": {"entries": [{"char": [1, 0], "mult": 3}, {"char": [0, 1], "mult": 1}, {"char": [1, 1], "mult": 1}]},
    "target": {"entries": [{"char": [1, 0], "mult": 1}]},
}
TORUS_PAIR = {
    "group": {"kind": "torus", "rank": 1},
    "module": {"entries": [{"char": [1], "mult": 2}]},
    "target": {"entries": [{"char": [5], "mult": 1}]},
}
TORUS_MODULE = {
    "group": {"kind": "torus", "rank": 2},
    "module": {"entries": [{"char": [1, 0], "mult": 2}, {"char": [2, 0], "mult": 1}, {"char": [0, 1], "mult": 1}]},
}

F2_COMMANDS = [
    ["reduce", "--field", "F2", "--nvars", "1", "--poly", "T1^5", "--gen", "T1^2+T1+1"],
    ["bound", "--theorem", "free-zero-set", "--inline", json.dumps(PAIR)],
    ["euler-check", "--inline", json.dumps(PAIR)],
    ["flag-find", "--inline", json.dumps(PAIR)],
    ["sympow", "-d", "2", "--inline", json.dumps(PAIR)],
    ["flag-ring", "-n", "3", "-l", "2", "--verify"],
]
Q_REDUCE = ["reduce", "--field", "Q", "--nvars", "1", "--poly", "3/2*T1^3", "--gen", "T1^2-2"]
TORUS_COMMANDS = [
    ["bound", "--theorem", "torus-interior", "--inline", json.dumps(TORUS_PAIR)],
    ["torus-decompose", "--inline", json.dumps(TORUS_MODULE)],
]
WITHOUT_NUMPY = F2_COMMANDS + [Q_REDUCE] + TORUS_COMMANDS

SCRIPT = """
import io, json, sys
import eulerlab
from eulerlab import cli
def loaded(names=("dataclasses", "inspect")):
    return [name for name in names if name in sys.modules]
def run(commands):
    return [cli.run(argv + ["--machine"], io.StringIO(), io.StringIO()) for argv in commands]
f2_commands, q_reduce, torus_commands = json.loads(sys.argv[1])
cli.build_parser()
parser_loads = loaded()
parser_loads_rationals = loaded(("fractions", "decimal", "numbers", "__future__"))
codes = run(f2_commands)
f2_fractions = "fractions" in sys.modules
codes += run([q_reduce])
q_fractions = "fractions" in sys.modules
codes += run(torus_commands)
before = "numpy" in sys.modules
commands_load = loaded()
out = io.StringIO()
code = cli.run(["torus-example", "-a", "2", "-b", "3", "-c", "1", "--samples", "200", "--machine"], out, io.StringIO())
print(json.dumps({"codes": codes, "before": before, "code": code, "after": "numpy" in sys.modules,
                  "parser_loads": parser_loads, "parser_loads_rationals": parser_loads_rationals,
                  "commands_load": commands_load,
                  "f2_fractions": f2_fractions, "q_fractions": q_fractions,
                  "doc": json.loads(out.getvalue())}))
"""


@pytest.fixture(scope="module")
def result():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps([F2_COMMANDS, Q_REDUCE, TORUS_COMMANDS])],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_start_up_loads_neither_dataclasses_nor_inspect(result):
    assert result["parser_loads"] == []
    assert result["commands_load"] == []


def test_start_up_loads_no_fractions_decimal_numbers_or_future(result):
    assert result["parser_loads_rationals"] == []


def test_fractions_loads_only_at_a_rational_that_is_not_integral(result):
    assert result["f2_fractions"] is False
    assert result["q_fractions"] is True


def test_numpy_loads_only_when_a_torus_map_is_sampled(result):
    assert result["codes"] == [0] * len(WITHOUT_NUMPY)
    assert result["before"] is False
    assert result["code"] == 0 and result["after"] is True
    verification = result["doc"]["verification"]
    assert verification["passed"] is True
    assert sorted(verification) == [
        "equivariant", "max_residual", "min_norm", "passed", "samples", "seed", "tag", "tol", "zero_set_isolated",
    ]


# Each snippet runs in a fresh interpreter that has imported eulerlab without
# loading `fractions` or `numbers`.
FRESH_PRELUDE = """
import sys
from eulerlab import F2, Q, InputError, circle_example, verify_equivariance
assert "fractions" not in sys.modules and "numbers" not in sys.modules
def refused(call, error, message):
    try:
        call()
    except error as exc:
        assert str(exc) == message, str(exc)
    else:
        raise AssertionError(f"{call} was not refused")
"""
FRESH = {
    "coerce-refuses": """
for field in (F2, Q):
    for value, text in ((True, "True"), (1.5, "1.5"), ("1", "'1'")):
        refused(lambda: field.coerce(value), InputError, f"coefficient {text} must be an int or a Fraction")
""",
    "coerce-int-subclass": """
class Int(int):
    pass
assert (Q.coerce(Int(3)), F2.coerce(Int(3))) == (3, 1)
assert type(Q.coerce(Int(3))) is int and type(F2.coerce(Int(3))) is int
""",
    "q-inverse": """
assert (Q.inverse(1), Q.inverse(-1), F2.inverse(1)) == (1, -1, 1)
assert "fractions" not in sys.modules
from fractions import Fraction
assert Q.inverse(2) == Fraction(1, 2) and type(Q.inverse(Fraction(1, 2))) is int
""",
    "q-inverse-of-zero": """
refused(lambda: Q.inverse(0), ZeroDivisionError, "Fraction(1, 0)")
""",
    "f2-reads-fractions": """
from fractions import Fraction
assert F2.coerce(Fraction(3, 1)) == 1
refused(lambda: F2.coerce(Fraction(1, 2)), InputError, "coefficient 1/2 is not an element of F2")
""",
    "equivariance-tol": """
m = circle_example(2, 3, 1)
refused(lambda: verify_equivariance(m, tol=True), InputError, "tolerance must be a finite positive number, got True")
from fractions import Fraction
report = verify_equivariance(m, samples=50, tol=Fraction(1, 10**6))
assert report.failure is None and report.to_doc()["tol"] == 1e-06
""",
}


@pytest.mark.parametrize("snippet", FRESH.values(), ids=FRESH.keys())
def test_lazy_fractions_paths_behave_as_before(snippet):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", FRESH_PRELUDE + snippet], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
