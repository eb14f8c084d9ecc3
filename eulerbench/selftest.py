"""Self-tests of the eulerlab benchmark.

    python3 eulerbench/selftest.py [--seed N]

On a short case list per workload this checks that
  * traced results are byte-identical to untraced results, and the oracle
    finds no wrong answer;
  * every count metric repeats exactly across two traced runs of one seed;
  * every span in layer_map.json fires on the workload meant to exercise it,
    and the layer split the benchmark was built around holds;
  * the tracer restores every attribute it rebinds;
  * run.py exits non-zero, printing no result, in a directory that holds the
    benchmark but no program.
Prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import run
from tracing import SPANS, Tracer
from workloads import WORKLOADS, WRONG

HERE = Path(__file__).resolve().parent
CASES = {"subgroup-scan": 8, "euler-f2": 6, "cli-mix": 100}
COUNT_SUFFIXES = (".calls", ".raised", ".yielded", "_terms.sum", "_terms.max", ".max", "_frac")
SPAN_NAMES = [name for name, _, _, _ in SPANS]

failures = []


def check(ok, label):
    print(f"{'PASS' if ok else 'FAIL'} {label}")
    if not ok:
        failures.append(label)


def span_of(metric):
    return next((s for s in SPAN_NAMES if metric.startswith(s + ".")), None)


def traced(workload, cases):
    with Tracer() as tracer:
        outputs, times = run.run_cases(workload, cases, tracer=tracer)
    return outputs, times, tracer.metrics()


def check_workload(name, seed, layer_map, spec_metrics):
    workload = WORKLOADS[name]
    cases = workload.cases(seed, CASES[name])
    plain, _ = run.run_cases(workload, cases)
    out1, times, m1 = traced(workload, cases)
    out2, _, m2 = traced(workload, cases)
    check(out1 == plain and out2 == plain, f"{name}: traced results equal untraced results")
    wrong = [v for v in run.judge(workload, cases, plain) if v[0] == WRONG]
    check(not wrong, f"{name}: oracle finds no wrong answer {wrong[:1]}")
    counts = [k for k in m1 if k.endswith(COUNT_SUFFIXES)]
    differ = [k for k in counts if m1[k] != m2[k]]
    check(not differ, f"{name}: {len(counts)} count metrics repeat exactly {differ[:3]}")
    missing = [k for k in spec_metrics if k not in m1 and not k.startswith("trace.")]
    check(not missing, f"{name}: every per-layer metric is produced {missing[:3]}")
    silent = [
        entry["metric"]
        for entry in layer_map["layers"]
        if name in entry["on"] and not entry["metric"].startswith("trace.")
        and (m1[f"{span_of(entry['metric'])}.calls"] if span_of(entry["metric"]) else m1[entry["metric"]]) <= 0
    ]
    check(not silent, f"{name}: every span meant for this workload fires {silent[:3]}")
    return m1, sum(times)


def check_layer_split(metrics, case_seconds):
    scan = metrics["subgroup-scan"]
    top = max((k for k in scan if k.endswith(".self_s")), key=scan.get)
    check(top == "flagsearch.best_fixed_subgroup.self_s", f"subgroup-scan: largest self time is {top}")
    f2 = metrics["euler-f2"]
    check(f2["flagsearch.best_fixed_subgroup.calls"] == 0, "euler-f2: best_fixed_subgroup never runs")
    share = (f2["polyring.reduce.self_s"] + f2["polyring.mul.self_s"]) / case_seconds["euler-f2"]
    check(share > 0.5, f"euler-f2: reduce + mul self time is {share:.0%} of case time")
    for name, m in metrics.items():
        fired = sorted(
            k for k, v in m.items()
            if k.startswith(("cli.", "sympow.", "torusmaps.")) and k.endswith((".calls", ".total_s")) and v
        )
        if name == "cli-mix":
            check(any(k.startswith("cli.") for k in fired) and any(k.startswith("sympow.") for k in fired)
                  and any(k.startswith("torusmaps.") for k in fired), "cli-mix: cli, sympow and torusmaps fire")
        else:
            check(not fired, f"{name}: no cli, sympow or torusmaps span fires {fired[:3]}")


def check_restored():
    namespaces = [(name, vars(mod)) for name, mod in list(sys.modules.items()) if name.split(".")[0] == "eulerlab"]
    namespaces.append(("Poly", vars(sys.modules["eulerlab.polyring"].Poly)))
    patched = [f"{name}.{key}" for name, ns in namespaces for key, value in ns.items() if hasattr(value, "_traced_as")]
    check(not patched, f"tracer restores every attribute {patched[:3]}")


def check_refuses_without_program():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(HERE, Path(tmp) / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", tmp)
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "cli-mix", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180,
        )
    check(proc.returncode != 0 and not proc.stdout.strip(), "run.py refuses a directory without the program")


def main():
    parser = argparse.ArgumentParser(description="Self-tests of the eulerlab benchmark.")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    sys.path.insert(0, str(run.SRC))
    warnings.filterwarnings("ignore", message="fixed part of dimension")
    layer_map = json.loads((HERE / "layer_map.json").read_text())
    spec_metrics = [m["name"] for m in json.loads(run.SPEC.read_text())["per_layer"]]
    metrics, case_seconds = {}, {}
    for name in WORKLOADS:
        metrics[name], case_seconds[name] = check_workload(name, args.seed, layer_map, spec_metrics)
    check_layer_split(metrics, case_seconds)
    check_restored()
    check_refuses_without_program()
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
