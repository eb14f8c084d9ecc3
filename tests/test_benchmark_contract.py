"""The benchmark (`eulerbench/`) drives eulerlab through its public API.  The
trace shim (`tracing.py`) wraps eulerlab names given as (module, attribute
path), and every one must resolve to a callable; the workloads (`workloads.py`)
call the library and the CLI, and their oracles must accept a few cases of each.
So a rename or an API change fails the test suite, not only a benchmark run.
Whole seeded pools must also give the outputs pinned here, byte for byte."""

import hashlib
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

EULERBENCH = Path(__file__).resolve().parents[1] / "eulerbench"


def load(name):
    """The module eulerbench/<name>.py, loaded by path."""
    spec = importlib.util.spec_from_file_location(f"eulerbench_{name}", EULERBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def resolve(module, path):
    owner = importlib.import_module(module)
    for part in path.split("."):
        owner = getattr(owner, part, None)
    return owner


def test_traced_names_resolve_to_callables():
    tracing = load("tracing")
    names = [(module, path) for _, module, path, _ in tracing.SPANS]
    names += [(module, path) for _, module, path in tracing.COUNTED_GENERATORS]
    assert names
    missing = [f"{module}:{path}" for module, path in names if not callable(resolve(module, path))]
    assert not missing, f"traced names that no longer resolve: {missing}"


@pytest.mark.filterwarnings("ignore:fixed part of dimension")
@pytest.mark.parametrize("name, count", [("subgroup-scan", 3), ("euler-f2", 3), ("cli-mix", 20)])
def test_workload_cases_pass_their_oracles(name, count):
    workload = load("workloads").WORKLOADS[name]
    cases = workload.cases(101, count)
    verdicts = [workload.check(case, workload.run(case)) for case in cases]
    assert verdicts == [None] * count


# Counters of the first three euler-f2 cases of seed 101.  They count calls
# and terms, not time, so a change of representation inside polyring must not
# move them; arithmetic builds its results through Poly._trusted, so
# Poly.__init__ runs only for the polynomials built from outside, one Poly.one
# per block relation built.  e(V) is multiplied on packed terms, with no `*`
# and no Poly.one; every product loses the terms the degree rule marks, and
# goes to `reduce` only when a term left reaches a lead degree.  The flags are admissible, so the reduction of e(V) never reads a
# top relation e(U_5), and it reads each lower relation only as deep in the
# lower variables as its heads can use: the multiplies and their terms count
# only those truncated builds, and the largest euler_poly is the largest
# normal form of e(V).
EULER_F2_COUNTERS = {
    "polyring.mul.calls": 55,
    "polyring.mul.out_terms.sum": 170,
    "polyring.reduce.calls": 24,
    "polyring.reduce.in_terms.sum": 178,
    "polyring.reduce.out_terms.sum": 122,
    "reps.euler_poly.out_terms.max": 9,
    "polyring.Poly.calls": 7,
}


def test_euler_f2_counters_are_pinned():
    workload = load("workloads").WORKLOADS["euler-f2"]
    cases = workload.cases(101, 3)
    with load("tracing").Tracer() as tracer:
        for case in cases:
            workload.run(case)
    metrics = tracer.metrics()
    assert {key: metrics[key] for key in EULER_F2_COUNTERS} == EULER_F2_COUNTERS


@pytest.mark.filterwarnings("ignore:fixed part of dimension")
@pytest.mark.parametrize("name, count", [("subgroup-scan", 3), ("euler-f2", 3), ("cli-mix", 20)])
def test_a_traced_pass_produces_every_per_layer_metric(name, count):
    # `run.py --trace 1` exits 2 when a per-layer metric of BENCHMARK.json is
    # missing, and a hook's counter exists only once its span has run: for
    # example polyring.mul.out_terms.max needs some `*`, which only the
    # relation builds call
    spec = json.loads((EULERBENCH.parent / "BENCHMARK.json").read_text())
    workload = load("workloads").WORKLOADS[name]
    with load("tracing").Tracer() as tracer:
        for case in workload.cases(101, count):
            workload.run(case)
    # run.py adds the overhead itself, from the untraced pass
    produced = set(tracer.metrics()) | {"trace.overhead_frac"}
    missing = [metric["name"] for metric in spec["per_layer"] if metric["name"] not in produced]
    assert not missing, f"per-layer metrics a traced {name} pass does not produce: {missing}"


@pytest.mark.filterwarnings("ignore:fixed part of dimension")
def test_traced_bound_workloads_read_their_reports():
    # the hooks of the bound spans read the returned report (`applicable`);
    # the euler-f2 pass above never calls a bound calculator
    workloads = load("workloads").WORKLOADS
    with load("tracing").Tracer() as tracer:
        for name, count in (("subgroup-scan", 3), ("cli-mix", 20)):
            for case in workloads[name].cases(101, count):
                workloads[name].run(case)
    metrics = tracer.metrics()
    assert metrics["bounds.bound_free_zero_set.calls"] + metrics["bounds.bound_torus.calls"] > 0
    assert metrics["bounds.applicable_frac"] > 0


# sha256 of the JSON list of `run` outputs over a whole seeded pool.  They pin
# every answer, refusal and --machine byte the benchmark sees, so a change
# that claims to keep the outputs shows it here.  cli-mix leaves out its
# torus-example cases: their floats come from numpy sampling and BLAS, whose
# last digits may differ from host to host.
POOL_DIGESTS = {
    ("subgroup-scan", 101): "430a62a9369c45450bb2d3b9ee815f6d98b48218ab6ed7302c61d92d21c205e6",
    ("subgroup-scan", 7919): "b3e07c67dc02f7547d2b0aca79378dd4320ee6474a3f2ab53130a90c5a072814",
    ("euler-f2", 101): "248792dc4f34eb9991d8cf68bfd682dadfac5971a5660ddc0f3f994ab1863ea1",
    ("euler-f2", 7919): "3511b8d6afbcb926cbf44961da3f22f0de1ca8333109453a1fd7ab5db558e55b",
    ("cli-mix", 101): "f5a0994ffbf2d012551517abb2e920d6e3da7f64a3e700621432afc4b63a78a3",
    ("cli-mix", 7919): "33f78c2cf5e56362e7970be964623dedf10b62dc28f12fbfb3bce50791ece184",
}


@pytest.mark.filterwarnings("ignore:fixed part of dimension")
@pytest.mark.parametrize("name, seed", list(POOL_DIGESTS))
def test_pool_outputs_are_pinned(name, seed):
    workload = load("workloads").WORKLOADS[name]
    cases = [case for case in workload.cases(seed) if not (isinstance(case, dict) and case["kind"] == "torus-example")]
    outputs = json.dumps([workload.run(case) for case in cases])
    assert hashlib.sha256(outputs.encode()).hexdigest() == POOL_DIGESTS[name, seed]
