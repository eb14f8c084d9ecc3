"""Every demo script runs to completion, with nothing on stderr.

Every demo must also print exactly the stdout recorded in `demos_golden.json`,
except the lines of demo 05 that print a sampled round-off residual ("max
|norm - 1| ..." and "max residual: ..."): those are pinned up to their value.
The file is only rewritten on a deliberate change of output, by running this
module:

    PYTHONPATH=src python tests/test_demos.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).with_name("demos_golden.json")
SAMPLED = ("max |norm - 1| ", "max residual: ")


def run_demo(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=60)


def pinned(stdout):
    """stdout with the value of every sampled residual line replaced by '*'."""
    return "".join(
        line.rpartition(": ")[0] + ": *\n" if line.startswith(SAMPLED) else line
        for line in stdout.splitlines(keepends=True)
    )


def record():
    golden = {demo.name: pinned(run_demo(demo).stdout) for demo in DEMOS}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def test_all_five_demos_found():
    assert len(DEMOS) == 5


def test_golden_covers_every_demo():
    assert sorted(json.loads(GOLDEN.read_text())) == [demo.name for demo in DEMOS]


def test_only_demo_05_has_sampled_lines():
    golden = json.loads(GOLDEN.read_text())
    masked = {
        name: [line for line in stdout.splitlines() if line.endswith(": *")]
        for name, stdout in golden.items()
        if ": *\n" in stdout
    }
    assert masked == {
        "05_torus_maps.py": ["max residual: *", "max |norm - 1| over 5000 sphere samples: *", "max residual: *"],
    }


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs_cleanly(demo):
    proc = run_demo(demo)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout
    assert pinned(proc.stdout) == json.loads(GOLDEN.read_text())[demo.name]


if __name__ == "__main__":
    record()
