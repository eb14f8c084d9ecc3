"""eulerlab benchmark: one seeded workload, run as a closed loop.

    python3 eulerbench/run.py --workload subgroup-scan --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the program under test is `src/eulerlab` next
to this directory, imported in this process.  A single caller sends one case at
a time and waits for its result, with no threads or worker processes.

--trace 0 warms up, then cycles through the workload's case pool for --seconds
seconds and prints the end-to-end metrics named in BENCHMARK.json; set-up is
timed in fresh interpreters spread evenly over the run.  --trace 1 runs the
pool once untraced and once under the trace shim, checks that both give
identical results, and prints the per-layer metrics.  Either way every case is
checked once by the workload's oracle after the timed phase, and all repeats of
a case must give the same result; `attempted` and `failed` count distinct cases,
so they depend only on the seed.  The line before the last one carries the
provenance; the last line of stdout is the result object.

Every time reported is scaled to host speed (see hostspeed.py): a calibration
pass is timed every CALIBRATE_EVERY_S seconds, each execution is scaled by the
mean of the passes just before and just after it, and each set-up by a
reference import timed right after it.  A case's latency is the median of its
scaled repeats, and cases_per_s is the number of pool cases over the sum of
those latencies, i.e. the closed loop's rate at nominal host speed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path
from time import perf_counter

from hostspeed import NOMINAL_IMPORT_S, NOMINAL_S, REFERENCE_IMPORT, calibrate
from workloads import REFUSED, WRONG

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

# Set-up is timed in this many fresh interpreters, spread evenly over the timed
# phase, after one warm-up spawn that fills the byte-code cache; each is scaled
# by a reference import in the next fresh interpreter, and the median of the
# scaled times is reported.
SETUP_RUNS = 11
SETUP_CODE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import eulerlab, eulerlab.cli\n"
    "eulerlab.cli.build_parser()\n"
    "print(time.perf_counter() - t, eulerlab.__file__)\n"
)
REFERENCE_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    f"import {REFERENCE_IMPORT}\n"
    "print(time.perf_counter() - t)\n"
)
CALIBRATE_EVERY_S = 0.2


class Raised(str):
    """Stands in for the result of a case whose call raised."""


def fail(message):
    print(f"eulerbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    if not (SRC / "eulerlab" / "__init__.py").is_file():
        fail(f"no eulerlab sources under {SRC}")
    try:
        return json.loads(SPEC.read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read {SPEC.name}: {exc}")


def spawn(*argv):
    """stdout fields of a fresh interpreter.

    The byte-code cache is always written and used, as for an installed
    package, whatever the caller's environment says.
    """
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, timeout=120, cwd=ROOT, env=env)
    if proc.returncode:
        fail(f"set-up interpreter failed:\n{proc.stderr}")
    return proc.stdout.split()


def setup_once():
    """Scaled seconds for a fresh interpreter to import eulerlab and build the CLI parser."""
    seconds, origin = spawn("-c", SETUP_CODE, str(SRC))
    if not Path(origin).resolve().is_relative_to(SRC):
        fail(f"set-up imported eulerlab from {origin}, not from {SRC}")
    (reference,) = spawn("-c", REFERENCE_CODE)
    return float(seconds) * NOMINAL_IMPORT_S / float(reference)


def run_case(workload, case):
    try:
        return workload.run(case)
    except Exception as exc:  # a raising case is a failure; the loop goes on
        return Raised(f"{type(exc).__name__}: {exc}")


def run_cases(workload, cases, tracer=None):
    """Run each case once, in order.  Returns (outputs, seconds per case), each
    timed from the call until its result has been consumed (serialized)."""
    outputs, times = [], []
    for i, case in enumerate(cases):
        if tracer is not None:
            tracer.case = i
        t0 = perf_counter()
        outputs.append(run_case(workload, case))
        times.append(perf_counter() - t0)
    return outputs, times


def timed_run(workload, cases, seconds):
    """Cycle through the pool for `seconds`, and at least once through all of
    it, execution i running case i % len(cases).

    A calibration pass runs every CALIBRATE_EVERY_S seconds, and set-up is
    timed SETUP_RUNS times at evenly spaced moments.  Returns (outputs, raw
    seconds and scaled seconds per execution, scaled set-up seconds).
    """
    setup_once()  # fills the byte-code cache
    outputs, raw, after = [], [], []
    calibrations, setups = [calibrate()], []
    start = mark = perf_counter()
    i = 0
    while i < len(cases) or perf_counter() - start < seconds:
        if len(setups) < SETUP_RUNS and perf_counter() - start >= len(setups) * seconds / SETUP_RUNS:
            calibrations.append(calibrate())
            setups.append(setup_once())
            calibrations.append(calibrate())
            mark = perf_counter()
        elif perf_counter() - mark >= CALIBRATE_EVERY_S:
            calibrations.append(calibrate())
            mark = perf_counter()
        t0 = perf_counter()
        outputs.append(run_case(workload, cases[i % len(cases)]))
        raw.append(perf_counter() - t0)
        after.append(len(calibrations) - 1)
        i += 1
    calibrations.append(calibrate())
    scaled = [t * NOMINAL_S * 2 / (calibrations[j] + calibrations[j + 1]) for t, j in zip(raw, after)]
    return outputs, raw, scaled, setups


def judge(workload, cases, outputs):
    """Oracle verdicts: Counter of (kind, reason) over the failed cases.

    Each case is checked once and counts once; its repeats must give the
    identical result.
    """
    verdicts = Counter()
    for k in range(len(cases)):
        repeats = outputs[k:: len(cases)]
        out = repeats[0]
        if isinstance(out, Raised):
            verdict = (REFUSED, f"raised {out}")
        elif any(r != out for r in repeats):
            verdict = (WRONG, "a repeat gave a different result")
        else:
            try:
                verdict = workload.check(cases[k], out)
            except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
                verdict = (WRONG, f"unreadable output: {type(exc).__name__}: {exc}")
        if verdict is not None:
            verdicts[verdict] += 1
    return verdicts


def per_case(times, n):
    """Median over each case's repeats, execution i being case i % n."""
    return [statistics.median(times[k::n]) for k in range(n)]


def git_commit():
    """HEAD of the checkout, read from .git without running git; None elsewhere."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest():
    digest = hashlib.sha256()
    for path in sorted(p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    sys.path.insert(0, str(SRC))
    warnings.filterwarnings("ignore", message="fixed part of dimension")
    import numpy

    import eulerlab
    from tracing import Tracer
    from workloads import WORKLOADS

    if not Path(eulerlab.__file__).resolve().is_relative_to(SRC):
        fail(f"imported eulerlab from {eulerlab.__file__}, not from {SRC}")
    if args.workload not in WORKLOADS or args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    workload = WORKLOADS[args.workload]
    details = {"workload": workload.name, "seed": args.seed, "trace": args.trace}

    cases = workload.cases(args.seed)
    run_cases(workload, cases[: workload.warmup])
    if args.trace:
        plain, plain_times = run_cases(workload, cases)
        with Tracer() as tracer:
            outputs, times = run_cases(workload, cases, tracer=tracer)
        values = tracer.metrics()
        values["trace.overhead_frac"] = sum(times) / sum(plain_times) - 1
        identical = outputs == plain
        details["traced_equals_untraced"] = identical
        details["top_self_s"] = tracer.top_self()
        section = "per_layer"
    else:
        outputs, raw, scaled, setups = timed_run(workload, cases, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        latency = per_case(scaled, len(cases))
        values = {
            "setup_s": statistics.median(setups),
            "case_p50_ms": statistics.median(latency) * 1000,
            "case_p90_ms": quantile(latency, 90) * 1000,
            "cases_per_s": len(latency) / sum(latency),
            "peak_rss_mb": peak_rss_mb,
        }
        identical = True
        section = "end_to_end"
        details.update(
            executions=len(raw),
            setup_runs=len(setups),
            unscaled_case_p50_ms=statistics.median(per_case(raw, len(cases))) * 1000,
            host_speed=statistics.median(s / r for s, r in zip(scaled, raw)),
        )

    verdicts = judge(workload, cases, outputs)
    failed = sum(verdicts.values())
    wrong = sum(n for (kind, _), n in verdicts.items() if kind == WRONG)
    attempted = len(cases)
    values["ok_frac"] = 1 - failed / attempted
    details["percentile_samples"] = attempted
    missing = [m["name"] for m in spec[section] if m["name"] not in values]
    if missing:
        fail(f"metrics not produced: {missing}")
    details.update(
        failures={f"{kind}: {reason}": n for (kind, reason), n in verdicts.most_common(5)},
        commit=git_commit(),
        src_sha256=src_digest(),
        python=sys.version.split()[0],
        numpy=numpy.__version__,
        nproc=len(os.sched_getaffinity(0)),
    )
    print(json.dumps({"eulerbench": details}))
    result = {
        "correct": wrong == 0 and identical,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
