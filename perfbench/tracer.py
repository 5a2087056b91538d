"""Span recording at cutgraphon's module boundaries, from outside the package.

`Hooks` rebinds names in the *caller's* namespace: `experiments.delta_upper`
is replaced, not `distance.delta_upper`, so only calls that cross a module
boundary are seen and nothing under `src/` changes.  Each wrapper records one
span (name, start, end, parent span, item) while the hooks are active, and
can also keep the arguments and result of a call so that the benchmark's
checks can replay it after the timed region.  `restore()` puts every
original object back.

Spans stay in memory until the run ends; `layer_stats` turns them into
per-name call counts, total time and self time (time not covered by wrapped
children).
"""

from __future__ import annotations

import functools
import importlib
import time
from types import SimpleNamespace

# (module whose namespace is rebound, attribute, span name)
CROSS_MODULE = (
    ("cutgraphon.experiments", "sample_graph", "sampling.sample_graph"),
    ("cutgraphon.experiments", "estimate_adjacency", "estimate.adjacency"),
    ("cutgraphon.experiments", "estimate_mean", "estimate.mean"),
    ("cutgraphon.experiments", "estimate_svt", "estimate.svt"),
    ("cutgraphon.experiments", "estimate_restricted_ls", "estimate.rls"),
    ("cutgraphon.experiments", "matrix_cut_norm_heuristic", "cutnorm.heuristic"),
    ("cutgraphon.experiments", "delta_upper", "distance.delta_upper"),
    ("cutgraphon.distance", "_max_rectangle_sum", "cutnorm.exact"),
    ("cutgraphon.distance", "_max_rectangle_sum_heuristic", "cutnorm.heuristic"),
    ("cutgraphon.distance", "blowup", "core.blowup"),
    ("cutgraphon.packing", "delta_exact_tiny", "distance.exact_tiny"),
    ("cutgraphon.packing", "delta_cut_lower", "distance.cut_lower"),
    ("cutgraphon.packing", "matrix_cut_norm_heuristic", "cutnorm.heuristic"),
    ("cutgraphon.regularity", "step_kernel_cut_norm_exact", "cutnorm.exact"),
)

# public entry points the benchmark itself calls: api name -> (module, attribute, span name)
ENTRY = {
    "run_risk_experiment": ("cutgraphon.experiments", "run_risk_experiment",
                            "experiments.run_risk_experiment"),
    "format_csv": ("cutgraphon.experiments", "format_csv", "experiments.format_csv"),
    "format_svg": ("cutgraphon.experiments", "format_svg", "experiments.format_svg"),
    "delta_upper": ("cutgraphon.distance", "delta_upper", "distance.delta_upper"),
    "delta_exact_tiny": ("cutgraphon.distance", "delta_exact_tiny", "distance.exact_tiny"),
    "weak_regularity_approx": ("cutgraphon.regularity", "weak_regularity_approx",
                               "regularity.weak_regularity_approx"),
    "graphon_packing": ("cutgraphon.packing", "graphon_packing", "packing.graphon_packing"),
}

# cross-module calls whose arguments and result the checks replay
CAPTURED = (
    ("cutgraphon.experiments", "delta_upper"),
    ("cutgraphon.experiments", "matrix_cut_norm_heuristic"),
)


class Hooks:
    """Wrappers on cutgraphon names: captures always, spans only if `spans`.

    Without spans only the `CAPTURED` names are rebound and no clock is
    read, so the untraced pass pays one extra Python call per captured
    call.  With spans every `CROSS_MODULE` name is rebound and `api` holds
    wrapped entry points.
    """

    def __init__(self, spans: bool):
        self.spans_on = spans
        self.active = False
        self.item = -1
        self.spans = []            # (name, t0, t1, parent index, item)
        self.captured = []         # (module.attr, args, kwargs, result)
        self._stack = []
        self._saved = []           # (module, attribute, original)
        self._entries = {key: getattr(importlib.import_module(mod), attr)
                         for key, (mod, attr, _) in ENTRY.items()}
        self.api = SimpleNamespace(**self._entries)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        bindings = {(mod, attr): None for mod, attr in CAPTURED}
        if self.spans_on:
            bindings.update({(mod, attr): name for mod, attr, name in CROSS_MODULE})
        for (mod_name, attr), name in bindings.items():
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            capture = (mod_name, attr) in CAPTURED
            setattr(mod, attr, self._wrap(orig, name, f"{mod_name}.{attr}" if capture else None))
        if self.spans_on:
            for key, (_, _, name) in ENTRY.items():
                setattr(self.api, key, self._wrap(self._entries[key], name, None))

    def restore(self) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()
        vars(self.api).update(self._entries)

    def originals(self):
        """(module, attribute, original object) for every rebound name."""
        return list(self._saved)

    # -- recording ----------------------------------------------------------

    def _wrap(self, fn, name, capture_key):
        hooks = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not hooks.active:
                return fn(*args, **kwargs)
            if name is None:
                out = fn(*args, **kwargs)
            else:
                out = hooks._timed(fn, name, args, kwargs)
            if capture_key is not None:
                hooks.captured.append((capture_key, args, kwargs, out))
            return out

        return wrapper

    def _timed(self, fn, name, args, kwargs):
        stack = self._stack
        idx = len(self.spans)
        self.spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans[idx] = (name, t0, t1, parent, self.item)

    def take_captured(self):
        out, self.captured = self.captured, []
        return out


def layer_stats(spans):
    """Per span name: calls, total seconds and self seconds.

    Self time is a span's duration minus the durations of its direct
    children; spans are sequential, so children never overlap.
    """
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    stats = {}
    for i, (name, t0, t1, _, _) in enumerate(spans):
        s = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        s["calls"] += 1
        s["total_s"] += t1 - t0
        s["self_s"] += (t1 - t0) - child[i]
    return stats


def child_counts(spans, parent_name, child_name):
    """Number of `child_name` spans whose direct parent is a `parent_name` span."""
    return sum(1 for name, _, _, parent, _ in spans
               if name == child_name and parent >= 0 and spans[parent][0] == parent_name)
