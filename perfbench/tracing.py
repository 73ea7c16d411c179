"""In-memory span tracing around the public entry points of each qosalloc layer.

A span is (name, start, end, parent, run_id). Spans are appended to a list
while the traced calls run and written out once at the end. A layer's self
time is its span's duration minus the durations of its direct children;
single-threaded spans nest strictly, so children never overlap.

Wrappers are installed at every import site: each target function is looked
up in every loaded ``qosalloc`` module and every global that refers to it is
replaced. ``missed_sites`` re-scans afterwards, so a module that captured an
unwrapped reference fails loudly instead of hiding its time in a parent span.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import statistics
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

ROOT = "bench.call"

# span name -> (module, attribute) of a module-level function
FUNCTIONS = {
    "predictor.predict_batch": ("qosalloc.predictor", "predict_batch"),
    "predictor.predict": ("qosalloc.predictor", "predict"),
    "search.search": ("qosalloc.search", "search"),
    "search.membership_c_form": ("qosalloc.search", "membership_c_form"),
    "netsim.effective_allocation": ("qosalloc.netsim", "effective_allocation"),
    "harness.run_scenario": ("qosalloc.harness", "run_scenario"),
    "harness.write_outputs": ("qosalloc.harness", "write_outputs"),
    "harness.compare_predictors": ("qosalloc.harness", "compare_predictors"),
    "harness.seed_profile_generate": ("qosalloc.harness", "seed_profile_generate"),
    "verification.run_all": ("qosalloc.verification", "run_all"),
    "verification.monotonicity": ("qosalloc.verification", "monotonicity_suite"),
    "verification.membership_forms": ("qosalloc.verification", "membership_forms_suite"),
    "verification.variation_bound": ("qosalloc.verification", "variation_bound_suite"),
    "verification.search_oracle": ("qosalloc.verification", "search_oracle_suite"),
    "verification.store_laws": ("qosalloc.verification", "store_laws_suite"),
    "verification.determinism": ("qosalloc.verification", "determinism_suite"),
    "verification.naive_search": ("qosalloc.verification", "naive_search"),
}

# (span name, module, class, method); the class is shared by every import site
METHODS = (
    ("profile.init", "qosalloc.profile", "Profile", "__init__"),
    ("profile.update", "qosalloc.profile", "Profile", "update"),
    ("profile.persist", "qosalloc.profile", "Profile", "to_bytes"),
    ("profile.persist", "qosalloc.profile", "Profile", "from_bytes"),
    ("controller.init", "qosalloc.controller", "QosController", "__init__"),
    ("controller.step", "qosalloc.controller", "QosController", "step"),
    ("netsim.run_epoch", "qosalloc.netsim", "Simulator", "run_epoch"),
    ("baselines.knn_predict_batch", "qosalloc.baselines", "KnnPredictor", "predict_batch"),
)


def import_all_qosalloc() -> None:
    """Import every qosalloc submodule so that all import sites exist up front."""
    pkg = importlib.import_module("qosalloc")
    for info in pkgutil.iter_modules(pkg.__path__, "qosalloc."):
        importlib.import_module(info.name)


def _qosalloc_modules():
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "qosalloc" or name.startswith("qosalloc."))
    ]


class Tracer:
    """Collects spans and boundary counters for the traced calls."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, run id]
        self.counts: dict[str, int] = defaultdict(int)
        self.run_id = ""
        self._stack: list[int] = []
        self._originals: dict[int, object] = {}  # id -> unwrapped target

    # -- recording ------------------------------------------------------------

    def _enter(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run_id]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        return span

    def _exit(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn under a root span; only calls under one are recorded."""
        span = self._enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(span)

    def _wrap(self, name: str, fn, site: str):
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:  # outside a root span: the benchmark's own checks
                return fn(*args, **kwargs)
            span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if hook is not None:
                hook(self.counts, site, args, kwargs, result)
            return result

        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every target at every import site in the loaded qosalloc modules."""
        import_all_qosalloc()
        for name, (mod_name, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[mod_name], attr)
            self._originals[id(original)] = original
            for mod in _qosalloc_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, self._wrap(name, original, mod.__name__))
        for name, mod_name, cls_name, attr in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__, cls_name))
            else:
                wrapped = self._wrap(name, raw, cls_name)
            setattr(cls, attr, wrapped)

    def missed_sites(self) -> list[str]:
        """Module globals that still refer to an unwrapped target."""
        missed = []
        for mod in _qosalloc_modules():
            for key, value in vars(mod).items():
                if self._originals.get(id(value)) is value:
                    missed.append(f"{mod.__name__}.{key}")
        return missed

    # -- derived metrics --------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, list[float]]]:
        """Self time (ms) per span name, and the list of span durations (ms)."""
        child_ms = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ms[parent] += (end - start) * 1e3
        self_ms: dict[str, float] = defaultdict(float)
        durations: dict[str, list[float]] = defaultdict(list)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            dur = (end - start) * 1e3
            self_ms[name] += dur - child_ms[i]
            durations[name].append(dur)
        return self_ms, durations

    def metrics(self, traced_wall_s: float, untraced_wall_s: float) -> dict[str, tuple]:
        """Every per-layer metric as name -> (value, unit)."""
        self_ms, durations = self.self_times()
        c = self.counts

        def calls(name: str) -> int:
            return len(durations.get(name, ()))

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        def p50(name: str, scale: float) -> float:
            values = durations.get(name)
            return statistics.median(values) * scale if values else 0.0

        out: dict[str, tuple] = {}
        for name in dict.fromkeys([*FUNCTIONS, *(m[0] for m in METHODS)]):
            out[f"{name}.calls"] = (calls(name), "count")
            out[f"{name}.self_ms"] = (self_ms.get(name, 0.0), "ms")
        kernel_evals = c["predictor.kernel_evals"]
        out["predictor.predict_batch.kernel_evals"] = (kernel_evals, "count")
        out["predictor.predict_batch.bytes_computed"] = (c["predictor.bytes_computed"], "B")
        out["predictor.predict_batch.ns_per_kernel_eval"] = (
            ratio(self_ms.get("predictor.predict_batch", 0.0) * 1e6, kernel_evals), "ns")
        searches = calls("search.search")
        out["search.search.grid_points"] = (c["search.grid_points"], "count")
        out["search.search.feasible_ratio"] = (ratio(c["search.feasible"], searches), "ratio")
        out["search.search.applied_ratio"] = (
            ratio(c["search.site.qosalloc.controller"], searches), "ratio")
        updates = calls("profile.update")
        for action in ("append", "replace", "fallback"):
            out[f"profile.update.{action}s"] = (c[f"profile.update.{action}"], "count")
        out["profile.update.replace_ratio"] = (ratio(c["profile.update.replace"], updates), "ratio")
        out["profile.update.fallback_ratio"] = (
            ratio(c["profile.update.fallback"], updates), "ratio")
        out["profile.update.us_p50"] = (p50("profile.update", 1e3), "us")
        out["controller.step.ms_p50"] = (p50("controller.step", 1.0), "ms")
        out["netsim.clamp_ratio"] = (
            ratio(c["netsim.clamped"], calls("netsim.effective_allocation")), "ratio")
        out["baselines.knn_predict_batch.distance_evals"] = (c["baselines.distance_evals"], "count")
        out["trace.spans"] = (len(self.spans), "count")
        out["trace.overhead_ratio"] = (ratio(traced_wall_s, untraced_wall_s) - 1.0, "ratio")
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# -- boundary counters --------------------------------------------------------

def _rows(xs) -> int:
    return int(np.shape(xs)[0])


def _count_predict_batch(counts, site, args, kwargs, result):
    xs = args[0]
    profile = args[1] if len(args) > 1 else kwargs["profile"]
    m, p = _rows(xs), profile.size
    counts["predictor.kernel_evals"] += m * p
    # float64 operands the per-record loop touches: the (m, n) candidates and
    # the (m,) weight vector; computed from shapes, not measured
    counts["predictor.bytes_computed"] += 8 * p * m * (profile.link_count + 1)


def _count_search(counts, site, args, kwargs, result):
    counts["search.grid_points"] += args[0].size
    counts["search.feasible"] += int(result.feasible_found)
    counts[f"search.site.{site}"] += 1


def _count_update(counts, site, args, kwargs, result):
    counts[f"profile.update.{result.action}"] += 1


def _count_clamp(counts, site, args, kwargs, result):
    counts["netsim.clamped"] += int(np.any(result < np.asarray(args[0], dtype=float)))


def _count_knn(counts, site, args, kwargs, result):
    # args = (self, xs, profile)
    counts["baselines.distance_evals"] += _rows(args[1]) * args[2].size


_HOOKS = {
    "predictor.predict_batch": _count_predict_batch,
    "search.search": _count_search,
    "profile.update": _count_update,
    "netsim.effective_allocation": _count_clamp,
    "baselines.knn_predict_batch": _count_knn,
}
