"""Trace shim: spans around eulerlab's public functions, installed from outside.

Several modules import functions by name (`from .cohomology import
euler_nonvanishing`), so wrapping one module attribute is not enough: install()
rebinds every `eulerlab.*` module attribute that is the same object, and
uninstall() puts every original back.  `Poly.__mul__` and `Poly.__init__` are
wrapped on the class.  `dot2`/`xor` are deliberately left alone: at millions of
calls the wrapper would cost more than the work, and their time shows up in the
caller's self time.

Spans are held in memory as (name, parent, case, start, end) and folded into
per-layer metrics at the end; self time is a span's duration minus the part of
it covered by its child spans.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from time import perf_counter


def _out_terms(tracer, name, args, result):
    n = len(result.terms())
    tracer.add(f"{name}.out_terms.sum", n)
    tracer.high(f"{name}.out_terms.max", n)


def _reduce_terms(tracer, name, args, result):
    tracer.add(f"{name}.in_terms.sum", len(args[0].terms()))
    _out_terms(tracer, name, args, result)


def _quotient_dim(tracer, name, args, result):
    tracer.high("cohomology.quotient_dim.max", result.quotient_dimension)


def _applicable(tracer, name, args, result):
    tracer.add("bounds.applicable", int(result.applicable))


# (span name, module, attribute path, hook run on the returned value)
SPANS = (
    ("cli.run", "eulerlab.cli", "run", None),
    ("bounds.bound_free_zero_set", "eulerlab.bounds", "bound_free_zero_set", _applicable),
    ("bounds.bound_torus", "eulerlab.bounds", "bound_torus", _applicable),
    ("flagsearch.best_fixed_subgroup", "eulerlab.flagsearch", "best_fixed_subgroup", None),
    ("flagsearch.find_flag", "eulerlab.flagsearch", "find_flag", None),
    ("flagsearch.find_rational_flag", "eulerlab.flagsearch", "find_rational_flag", None),
    ("cohomology.presentation", "eulerlab.cohomology", "presentation", _quotient_dim),
    ("cohomology.euler_nonvanishing", "eulerlab.cohomology", "euler_nonvanishing", None),
    ("cohomology.verify_flag_ring", "eulerlab.cohomology", "verify_flag_ring", None),
    ("reps.euler_poly", "eulerlab.reps", "euler_poly", _out_terms),
    ("reps.decompose", "eulerlab.reps", "decompose", None),
    ("reps.fixed_subrep", "eulerlab.reps", "fixed_subrep", None),
    ("polyring.reduce", "eulerlab.polyring", "reduce", _reduce_terms),
    ("polyring.mul", "eulerlab.polyring", "Poly.__mul__", _out_terms),
    ("polyring.Poly", "eulerlab.polyring", "Poly.__init__", None),
    ("linalg.rrefq", "eulerlab.linalg", "rrefq", None),
    ("linalg.solve2", "eulerlab.linalg", "solve2", None),
    ("linalg.solveq", "eulerlab.linalg", "solveq", None),
    ("sympow.min_embedding_k", "eulerlab.sympow", "min_embedding_k", None),
    ("sympow.sym_multiplicities", "eulerlab.sympow", "sym_multiplicities", None),
    ("torusmaps.verify_equivariance", "eulerlab.torusmaps", "verify_equivariance", None),
)

# Generators are counted, not timed: their time interleaves with the caller's.
COUNTED_GENERATORS = (
    ("linalg.enumerate_subspace_bases2", "eulerlab.linalg", "enumerate_subspace_bases2"),
)


class Tracer:
    """Collects spans and counters while installed; one tracer per traced pass."""

    def __init__(self):
        self.spans = []
        self.case = None
        self.counters = defaultdict(int)
        self._stack = []
        self._patches = []

    def add(self, key, n):
        self.counters[key] += n

    def high(self, key, n):
        self.counters[key] = max(self.counters[key], n)

    # -- installation --------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, module, path, hook in SPANS:
            self._replace(module, path, self._span(name, hook))
        for name, module, path in COUNTED_GENERATORS:
            self._replace(module, path, self._counting(name))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _replace(self, module, path, make_wrapper):
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapper = make_wrapper(original)
        if outer:
            targets = [(owner, attr)]
        else:
            targets = [
                (mod, key)
                for mod_name, mod in list(sys.modules.items())
                if mod is not None and mod_name.split(".")[0] == "eulerlab"
                for key, value in list(vars(mod).items())
                if value is original
            ]
        for target, key in targets:
            self._patches.append((target, key, original))
            setattr(target, key, wrapper)

    def _span(self, name, hook):
        spans, stack = self.spans, self._stack

        def make(fn):
            def wrapper(*args, **kwargs):
                index = len(spans)
                spans.append(None)
                stack.append(index)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    self.counters[f"{name}.raised"] += 1
                    raise
                finally:
                    end = perf_counter()
                    stack.pop()
                    spans[index] = (name, stack[-1] if stack else -1, self.case, start, end)
                if hook is not None:
                    hook(self, name, args, result)
                return result

            wrapper._traced_as = name
            return wrapper

        return make

    def _counting(self, name):
        counters = self.counters
        key = f"{name}.yielded"

        def make(fn):
            def wrapper(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    counters[key] += 1
                    yield item

            wrapper._traced_as = name
            return wrapper

        return make

    # -- results -------------------------------------------------------------

    def metrics(self):
        """Per-span calls/total_s/self_s/raised plus the hooks' counters."""
        child = [0.0] * len(self.spans)
        for name, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, _, _, start, end) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.total_s"] += end - start
            out[f"{name}.self_s"] += end - start - child[i]
        for name, _, _, _ in SPANS:
            for stat in ("calls", "total_s", "self_s", "raised"):
                out.setdefault(f"{name}.{stat}", 0)
        for name, _, _ in COUNTED_GENERATORS:
            out.setdefault(f"{name}.yielded", 0)
        out.update(self.counters)
        calls = out["bounds.bound_free_zero_set.calls"] + out["bounds.bound_torus.calls"]
        out["bounds.applicable_frac"] = out.pop("bounds.applicable", 0) / calls if calls else 0.0
        for key in out:
            if key.endswith((".calls", ".raised", ".yielded", ".sum", ".max")):
                out[key] = int(out[key])
        return dict(out)

    def top_self(self, k=3):
        """The k spans with the largest self time, as (name, seconds)."""
        totals = {
            key[: -len(".self_s")]: value
            for key, value in self.metrics().items()
            if key.endswith(".self_s")
        }
        return sorted(totals.items(), key=lambda kv: -kv[1])[:k]
