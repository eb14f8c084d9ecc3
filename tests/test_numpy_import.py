"""numpy is loaded only when a torus sphere map is sampled, and
`dataclasses` and `inspect` are never loaded by the CLI's start-up.

A fresh interpreter imports `eulerlab` and `eulerlab.cli`, builds the parser
and runs every subcommand that samples no torus map; numpy must still be
absent from `sys.modules`, and `dataclasses` and `inspect` absent both after
the parser is built and after those subcommands.  `torus-example` then
samples the circle map and loads numpy.
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

WITHOUT_NUMPY = [
    ["reduce", "--field", "F2", "--nvars", "1", "--poly", "T1^5", "--gen", "T1^2+T1+1"],
    ["bound", "--theorem", "free-zero-set", "--inline", json.dumps(PAIR)],
    ["bound", "--theorem", "torus-interior", "--inline", json.dumps(TORUS_PAIR)],
    ["euler-check", "--inline", json.dumps(PAIR)],
    ["flag-find", "--inline", json.dumps(PAIR)],
    ["sympow", "-d", "2", "--inline", json.dumps(PAIR)],
    ["flag-ring", "-n", "3", "-l", "2", "--verify"],
    ["torus-decompose", "--inline", json.dumps(TORUS_MODULE)],
]

SCRIPT = """
import io, json, sys
import eulerlab
from eulerlab import cli
def loaded():
    return [name for name in ("dataclasses", "inspect") if name in sys.modules]
cli.build_parser()
parser_loads = loaded()
codes = [cli.run(argv + ["--machine"], io.StringIO(), io.StringIO()) for argv in json.loads(sys.argv[1])]
before = "numpy" in sys.modules
commands_load = loaded()
out = io.StringIO()
code = cli.run(["torus-example", "-a", "2", "-b", "3", "-c", "1", "--samples", "200", "--machine"], out, io.StringIO())
print(json.dumps({"codes": codes, "before": before, "code": code, "after": "numpy" in sys.modules,
                  "parser_loads": parser_loads, "commands_load": commands_load,
                  "doc": json.loads(out.getvalue())}))
"""


@pytest.fixture(scope="module")
def result():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(WITHOUT_NUMPY)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_start_up_loads_neither_dataclasses_nor_inspect(result):
    assert result["parser_loads"] == []
    assert result["commands_load"] == []


def test_numpy_loads_only_when_a_torus_map_is_sampled(result):
    assert result["codes"] == [0] * len(WITHOUT_NUMPY)
    assert result["before"] is False
    assert result["code"] == 0 and result["after"] is True
    verification = result["doc"]["verification"]
    assert verification["passed"] is True
    assert sorted(verification) == [
        "equivariant", "max_residual", "min_norm", "passed", "samples", "seed", "tag", "tol", "zero_set_isolated",
    ]
