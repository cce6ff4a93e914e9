"""Timing shims for the traced run, installed from outside the package.

Each function named in a layer module's ``__all__`` is wrapped in every layer
module whose namespace binds it by import, so calls that cross a layer
boundary are recorded.  The functions in TRACKED are also wrapped in their
own module, so that calls from inside it are counted too.  A shim records
a span (id, parent, name, start, end) and, for a few functions, counts read
from the arguments or the result.  Everything stays in memory until
``Tracer.metrics`` reduces it.  ``uninstall`` restores every binding.

A tracked function that a module no longer exports is skipped, and its
metrics are left out of the report.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
import types
from collections import Counter, defaultdict
from typing import Callable

LAYERS = ("cli", "experiments", "inference", "exact", "models", "graph", "rng")

TRACKED = {
    "cli": ("main",),
    "experiments": ("run_experiment",),
    "inference": ("mle", "proper_log_likelihood", "log_likelihood", "fisher_information"),
    "exact": ("enumerated_stats", "log_normalizer", "build_distribution",
              "marginal_distribution", "stat_covariance", "projectivity_check",
              "exact_sample", "sample_bernoulli"),
    "models": ("sufficient_stats", "natural_params"),
    "graph": ("triangle_count", "is_connected", "induced_subgraph"),
    "rng": ("substream",),
}

_MARKER = "__perfbench_shim__"


def layer_modules() -> dict[str, types.ModuleType]:
    return {layer: importlib.import_module(f"projgraph.{layer}") for layer in LAYERS}


def installed(modules: dict[str, types.ModuleType]) -> list[str]:
    """Names in the layer modules that are currently bound to a shim."""
    return sorted(
        f"{layer}.{name}"
        for layer, module in modules.items()
        for name, obj in vars(module).items()
        if getattr(obj, _MARKER, False)
    )


def assert_uninstalled(modules: dict[str, types.ModuleType]) -> None:
    found = installed(modules)
    if found:
        raise RuntimeError(f"tracing shims are installed: {', '.join(found)}")


def _count_table(counts: Counter, args: tuple, kwargs: dict, result) -> None:
    shape = getattr(result, "shape", ())
    if len(shape) == 2:
        counts["exact.rows_scanned"] += shape[0]
        # computed from the table's size as float64, not measured
        counts["exact.bytes_scanned_computed"] += shape[0] * shape[1] * 8


def _count_dyads(counts: Counter, args: tuple, kwargs: dict, result) -> None:
    n = kwargs.get("n", args[0] if args else 0)
    counts["exact.dyads_drawn"] += n * (n - 1) // 2


def _count_mle(counts: Counter, args: tuple, kwargs: dict, result) -> None:
    converged = bool(getattr(result, "converged", False))
    boundary = bool(getattr(result, "boundary", False))
    counts["inference.mle.iterations"] += getattr(result, "iterations", 0)
    counts["inference.mle.boundary"] += boundary
    counts["inference.mle.nonconverged"] += not converged and not boundary
    counts["inference.mle.converged"] += converged


_HOOKS: dict[str, Callable] = {
    "exact.enumerated_stats": _count_table,
    "exact.sample_bernoulli": _count_dyads,
    "inference.mle": _count_mle,
}


class Tracer:
    """Installs the shims and keeps their spans and counts."""

    def __init__(self, modules: dict[str, types.ModuleType]):
        self.modules = modules
        self.spans: list[tuple[int, int, str, float, float, bool]] = []
        self.counts: Counter = Counter()
        self.wrapped: set[str] = set()
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[types.ModuleType, str, Callable]] = []

    def install(self) -> None:
        assert_uninstalled(self.modules)
        for layer, module in self.modules.items():
            for name in getattr(module, "__all__", ()):
                fn = vars(module).get(name)
                if not isinstance(fn, types.FunctionType) or fn.__module__ != module.__name__:
                    continue
                targets = [m for m in self.modules.values()
                           if m is not module and vars(m).get(name) is fn]
                if name in TRACKED.get(layer, ()):
                    targets.append(module)
                if not targets:
                    continue
                shim = self._shim(f"{layer}.{name}", fn)
                for target in targets:
                    self._patches.append((target, name, fn))
                    setattr(target, name, shim)
                self.wrapped.add(f"{layer}.{name}")

    def uninstall(self) -> None:
        while self._patches:
            module, name, original = self._patches.pop()
            setattr(module, name, original)

    def _shim(self, qualified: str, fn: Callable) -> Callable:
        spans, counts, ids, local = self.spans, self.counts, self._ids, self._local
        hook = _HOOKS.get(qualified)

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            state = local.__dict__
            stack = state.setdefault("stack", [])
            active = state.setdefault("active", Counter())
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            outermost = active[qualified] == 0
            stack.append(span_id)
            active[qualified] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                active[qualified] -= 1
                spans.append((span_id, parent, qualified, start, end, outermost))
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        setattr(shim, _MARKER, True)
        return shim

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-module self time, per-function calls and busy time, and counts."""
        covered: dict[int, float] = defaultdict(float)
        for _, parent, _, start, end, _ in self.spans:
            covered[parent] += end - start
        self_s = dict.fromkeys(self.modules, 0.0)
        calls: Counter = Counter()
        busy: dict[str, float] = defaultdict(float)
        for span_id, _, name, start, end, outermost in self.spans:
            self_s[name.split(".")[0]] += (end - start) - covered[span_id]
            calls[name] += 1
            if outermost:  # recursion is not counted twice
                busy[name] += end - start
        out = {f"{layer}.self_s": (value, "s") for layer, value in self_s.items()}
        for layer, names in TRACKED.items():
            for name in names:
                qualified = f"{layer}.{name}"
                if qualified in self.wrapped:
                    out[f"{qualified}.calls"] = (calls[qualified], "count")
                    out[f"{qualified}.busy_s"] = (busy[qualified], "s")
        c = self.counts
        if "exact.enumerated_stats" in self.wrapped:
            out["exact.rows_scanned"] = (c["exact.rows_scanned"], "count")
            out["exact.bytes_scanned_computed"] = (c["exact.bytes_scanned_computed"], "bytes")
        if "exact.sample_bernoulli" in self.wrapped:
            out["exact.dyads_drawn"] = (c["exact.dyads_drawn"], "count")
        if "inference.mle" in self.wrapped:
            mle_calls = calls["inference.mle"]
            out["inference.mle.iterations"] = (c["inference.mle.iterations"], "count")
            out["inference.mle.boundary"] = (c["inference.mle.boundary"], "count")
            out["inference.mle.nonconverged"] = (c["inference.mle.nonconverged"], "count")
            out["inference.mle.converged_ratio"] = (
                c["inference.mle.converged"] / mle_calls if mle_calls else 0.0, "ratio")
        return out
