"""The benchmark's trace shim (`eulerbench/tracing.py`) wraps eulerlab names
given as (module, attribute path).  Every one must resolve to a callable, so a
rename fails the test suite and not only a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "eulerbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("eulerbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(module, path):
    owner = importlib.import_module(module)
    for part in path.split("."):
        owner = getattr(owner, part, None)
    return owner


def test_traced_names_resolve_to_callables():
    tracing = load_tracing()
    names = [(module, path) for _, module, path, _ in tracing.SPANS]
    names += [(module, path) for _, module, path in tracing.COUNTED_GENERATORS]
    assert names
    missing = [f"{module}:{path}" for module, path in names if not callable(resolve(module, path))]
    assert not missing, f"traced names that no longer resolve: {missing}"
