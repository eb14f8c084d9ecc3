"""Every demo script runs to completion, with nothing on stderr.

Demos 01-04 must also print exactly the stdout recorded in `demos_golden.json`.
The file is only rewritten on a deliberate change of output, by running this
module:

    PYTHONPATH=src python tests/test_demos.py

Demo 05 prints sampled float residuals, so only its clean run is checked.
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
PINNED = DEMOS[:4]


def run_demo(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=60)


def record():
    golden = {demo.name: run_demo(demo).stdout for demo in PINNED}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def test_all_five_demos_found():
    assert len(DEMOS) == 5


def test_golden_covers_demos_01_to_04():
    assert [demo.name[:2] for demo in PINNED] == ["01", "02", "03", "04"]
    assert sorted(json.loads(GOLDEN.read_text())) == [demo.name for demo in PINNED]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs_cleanly(demo):
    proc = run_demo(demo)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout
    if demo in PINNED:
        assert proc.stdout == json.loads(GOLDEN.read_text())[demo.name]


if __name__ == "__main__":
    record()
