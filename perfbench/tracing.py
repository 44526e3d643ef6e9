"""Outside-in layer timing: spans recorded around lrpovm's public functions.

The program is not changed.  ``Tracer.installed()`` replaces each public
function matched by ``RULES`` with a wrapper that records a span (layer,
start, end, parent) in memory.  A module that imported the function by
name (``from .sphere import circle_arc_fraction``) holds its own binding,
so every binding of the same object in every loaded ``lrpovm`` module is
replaced, and restored on exit.  Per-layer self time is a span's duration
minus its child spans; time in functions no rule matches (the private
counting kernels, say) stays in the nearest traced caller.

Counting is therefore the self time of the estimator entry points
(``estimate*``, ``sweep_curve*``) once sampling, reduction, quadrature and
output children are taken out.  Spans are recorded only in this process:
run traced work at one worker.
"""
from __future__ import annotations

import concurrent.futures
import contextlib
import fnmatch
import inspect
import math
import os
import sys
import time
from collections import Counter

import numpy as np

# (module, public-name pattern, layer).  Class methods are "Class.method".
RULES = [
    ("models", "*_batch", "sample"),
    ("models", "tomography_projections", "sample"),
    ("sphere", "sample_*", "sample"),
    ("sphere", "orthonormal_frame", "sample"),
    ("models", "enumerate_*", "enumerate"),
    ("estimators", "estimate*", "count"),
    ("estimators", "sweep_curve*", "count"),
    ("estimators", "enumerate_exact", "exact"),
    ("estimators", "tomography_pair_table", "quad"),
    ("sphere", "circle_arc_fraction", "quad"),
    ("sphere", "gauss_legendre", "quad"),
    ("sphere", "cap_overlap_quadrature", "quad"),
    ("estimators", "RunStatistics.*", "reduce"),
    ("curvefile", "write_*", "write"),
    ("svgchart", "write_*", "write"),
    ("cli", "main", "cli"),
]


def _pairs(config) -> int:
    return len(config.alice_directions) * len(config.bob_directions)


def _count_hook(counts, args, result, nested):
    """threshold_evals = samples x thresholds x reading pairs (nominal)."""
    if "samples" not in args:
        return
    if "config" in args:
        counts["threshold_evals"] += args["samples"] * _pairs(args["config"])
    elif "n_copies" in args and "kind" in args:
        from lrpovm import estimators, models
        grid = args.get("q_grid")
        q = len(estimators.default_q_grid() if grid is None else grid)
        pairs = _pairs(models.tomography_config(args["kind"]))
        counts["threshold_evals"] += args["samples"] * q * pairs


def _sample_hook(counts, args, result, nested):
    if not nested:
        counts["samples"] += int(args.get("n", args.get("size", 0)) or 0)


def _quad_hook(counts, args, result, nested):
    counts["quad_tables"] += 1


def _arc_hook(counts, args, result, nested):
    counts["arc_evals"] += int(np.size(result))


def _reduce_hook(counts, args, result, nested):
    counts["reduce_calls"] += not nested


def _write_hook(counts, args, result, nested):
    path = args.get("path")
    if path is not None and os.path.exists(path):
        counts["bytes"] += os.path.getsize(path)


HOOKS = {
    "count": _count_hook, "sample": _sample_hook, "reduce": _reduce_hook,
    "write": _write_hook, "estimators.tomography_pair_table": _quad_hook,
    "sphere.circle_arc_fraction": _arc_hook,
}


class Tracer:
    """Spans held in memory; layer totals computed when the run ends."""

    def __init__(self):
        self.spans: list[list] = []   # [layer, name, parent, start, end]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.wrapped: Counter = Counter()   # functions wrapped per layer

    def _wrap(self, fn, layer: str, name: str):
        hook = HOOKS.get(name) or HOOKS.get(layer)
        sig = inspect.signature(fn)
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append([layer, name, parent, time.perf_counter(), None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][4] = time.perf_counter()
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                nested = parent >= 0 and spans[parent][0] == layer
                hook(counts, bound.arguments, result, nested)
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__module__ = fn.__module__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        traced._perfbench = True
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding of every matched function; restore on exit."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "lrpovm" or n.startswith("lrpovm.")]
        undo = []
        try:
            for short, pattern, layer in RULES:
                mod = sys.modules[f"lrpovm.{short}"]
                for qual, owner, attr, fn in _targets(mod, pattern):
                    wrapper = self._wrap(fn, layer, f"{short}.{qual}")
                    self.wrapped[layer] += 1
                    if owner is not None:    # a method: patch the class
                        undo.append((owner, attr, fn))
                        setattr(owner, attr, wrapper)
                        continue
                    for m in modules:
                        for key, value in list(vars(m).items()):
                            if value is fn:
                                undo.append((m, key, fn))
                                setattr(m, key, wrapper)
            missing = {layer for _, _, layer in RULES} - set(self.wrapped)
            if missing:
                raise RuntimeError(f"no lrpovm function matched layer(s) "
                                   f"{sorted(missing)}")
            with count_pool_starts(self.counts):
                yield self
        finally:
            for owner, key, fn in reversed(undo):
                setattr(owner, key, fn)

    def layer_times(self) -> tuple[dict, dict, dict]:
        """(self time, call count, outermost inclusive time) per layer."""
        child = [0.0] * len(self.spans)
        for layer, _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        own, calls, outer = Counter(), Counter(), Counter()
        for i, (layer, _, parent, start, end) in enumerate(self.spans):
            own[layer] += (end - start) - child[i]
            calls[layer] += 1
            if parent < 0 or self.spans[parent][0] != layer:
                outer[layer] += end - start
        return own, calls, outer


def _targets(mod, pattern):
    """(qualified name, owning class or None, attribute, function)."""
    if "." in pattern:
        cls_name, meth = pattern.split(".", 1)
        cls = getattr(mod, cls_name, None)
        items = [] if cls is None else [
            (f"{cls_name}.{k}", cls, k, v) for k, v in vars(cls).items()
            if inspect.isfunction(v) and not k.startswith("_")
            and fnmatch.fnmatchcase(k, meth) and not hasattr(v, "_perfbench")]
        return items
    return [(k, None, k, v) for k, v in list(vars(mod).items())
            if inspect.isfunction(v) and not k.startswith("_")
            and v.__module__ == mod.__name__
            and fnmatch.fnmatchcase(k, pattern)
            and not hasattr(v, "_perfbench")]


@contextlib.contextmanager
def count_pool_starts(counts: Counter):
    """Count ProcessPoolExecutor constructions made through lrpovm modules."""
    original = concurrent.futures.ProcessPoolExecutor

    class Counted(original):
        def __init__(self, *args, **kwargs):
            counts["pool_starts"] += 1
            super().__init__(*args, **kwargs)

    patched = []
    for name, m in list(sys.modules.items()):
        if name == "lrpovm" or name.startswith("lrpovm."):
            for key, value in list(vars(m).items()):
                if value is original:
                    patched.append((m, key))
                    setattr(m, key, Counted)
    try:
        yield
    finally:
        for m, key in patched:
            setattr(m, key, original)


def per_layer_metrics(tracer: Tracer, traced_s: float, untraced_s: float,
                      pool: dict) -> dict:
    """The per-layer metrics of BENCHMARK.json from one traced iteration."""
    own, calls, outer = tracer.layer_times()
    c = tracer.counts
    count_s = own["count"]
    sample_s = own["sample"]
    quad_s = own["quad"]
    return {
        "estimators.count_s": (count_s, "s"),
        "estimators.count_share": (
            count_s / outer["count"] if outer["count"] else 0.0, "ratio"),
        "estimators.threshold_evals": (c["threshold_evals"], "count"),
        "models.sample_s": (sample_s, "s"),
        "models.samples": (c["samples"], "count"),
        "models.ns_per_sample": (
            sample_s * 1e9 / c["samples"] if c["samples"] else 0.0, "ns"),
        "estimators.pool_starts": (c["pool_starts"], "count"),
        "estimators.pool_overhead_s": (pool.get("overhead_s", 0.0), "s"),
        "estimators.pool_efficiency": (pool.get("efficiency", 0.0), "ratio"),
        "estimators.quad_s": (quad_s, "s"),
        "estimators.quad_tables": (c["quad_tables"], "count"),
        "estimators.quad_s_per_table": (
            quad_s / c["quad_tables"] if c["quad_tables"] else 0.0, "s"),
        "sphere.arc_evals": (c["arc_evals"], "count"),
        "models.enumerate_s": (own["enumerate"], "s"),
        "estimators.reduce_s": (own["reduce"], "s"),
        "estimators.reduce_calls": (c["reduce_calls"], "count"),
        "curvefile.write_s": (own["write"], "s"),
        "curvefile.bytes": (c["bytes"], "bytes"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
    }


def layer_summary(tracer: Tracer, traced_s: float) -> dict:
    """Every layer's self time and call count, for the run record."""
    own, calls, _ = tracer.layer_times()
    summary = {layer: {"self_s": own[layer], "calls": calls[layer]}
               for layer in sorted(own)}
    summary["untraced_remainder_s"] = traced_s - math.fsum(own.values())
    return summary
