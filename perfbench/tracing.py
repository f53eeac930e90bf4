"""Per-layer tracing of carlesonlab, installed from outside the package.

Public names are wrapped in every loaded ``carlesonlab.*`` module that holds
them (harness imports most of them by name, so patching the defining module
alone would miss its calls).  Each wrapped call records a span: name, start,
end, parent.  Spans stay in memory; the caller writes them out at exit.

Layer names are fixed: later changes are judged by them.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
import tracemalloc

# (span name, defining module, attribute)
FUNCTION_SPANS = (
    ("harness", "carlesonlab.harness", "run_sweep"),
    # the level loop: its end closes the last refinement level
    ("harness", "carlesonlab.harness", "_probe_levels"),
    ("harness.build_family", "carlesonlab.harness", "build_family"),
    ("curves.build", "carlesonlab.harness", "build_curve"),
    ("curves.carleson_constant", "carlesonlab.curves", "carleson_constant"),
    ("curves.carleson_constant", "carlesonlab.curves",
     "default_carleson_grids"),
    ("argbranch.unwrap", "carlesonlab.argbranch", "unwrap_arg"),
    ("submult.spirality_indices", "carlesonlab.submult", "spirality_indices"),
    ("norms.exponent", "carlesonlab.norms", "constant_exponent"),
    ("norms.exponent", "carlesonlab.norms", "profile_exponent"),
    ("norms.exponent", "carlesonlab.norms", "tabulated_exponent"),
    ("norms.luxemburg_norm", "carlesonlab.norms", "luxemburg_norm"),
    ("norms.muckenhoupt_ap", "carlesonlab.norms", "muckenhoupt_ap"),
    ("maximal.weighted_maximal", "carlesonlab.maximal", "weighted_maximal"),
    ("criteria.verdict", "carlesonlab.criteria", "check_kps"),
    ("criteria.verdict", "carlesonlab.criteria", "check_main"),
)
# (span name, defining module, class, method, record peak memory)
METHOD_SPANS = (
    ("maximal.evaluator_build", "carlesonlab.maximal", "MaximalEvaluator",
     "__init__", True),
    ("maximal.sup_average", "carlesonlab.maximal", "MaximalEvaluator",
     "sup_average", False),
)
# called ~10^5 times per probe: counted only, a span would cost more than it
COUNTERS = (("norms.modular", "carlesonlab.norms", "modular"),)

LEVELS = (2048, 4096, 8192, 16384, 32768)
TIMED = ("maximal.sup_average", "maximal.evaluator_build",
         "maximal.weighted_maximal", "norms.luxemburg_norm", "norms.exponent",
         "norms.muckenhoupt_ap", "submult.spirality_indices", "curves.build",
         "curves.carleson_constant", "argbranch.unwrap", "criteria.verdict",
         "harness.build_family")
COUNTED = ("maximal.sup_average", "maximal.evaluator_build",
           "norms.luxemburg_norm", "submult.spirality_indices",
           "curves.build", "argbranch.unwrap", "criteria.verdict")

# name -> (unit, better); the metric -> workload map is in README.md
PER_LAYER = {}
for _name in COUNTED:
    PER_LAYER[f"{_name}.calls"] = ("count", "lower")
for _name in TIMED:
    PER_LAYER[f"{_name}.s"] = ("s", "lower")
PER_LAYER.update({
    "maximal.evaluator_build.peak_mb": ("MB", "lower"),
    "maximal.reuse": ("calls/build", "higher"),
    "norms.modular.calls": ("count", "lower"),
    "norms.modular_per_norm": ("calls/norm", "lower"),
    "harness.skipped_frac": ("ratio", "lower"),
    "harness.self_s": ("s", "lower"),
    "bench.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.base_wall_s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
    "trace.accounted_frac": ("ratio", "higher"),
})
for _n in LEVELS:
    PER_LAYER[f"harness.level_s.{_n}"] = ("s", "lower")


class Tracer:
    """Span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, level, peak]
        self.counts = {}
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, memory=False):
        spans, stack = self.spans, self._stack
        level_arg = name == "curves.build"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            level = None
            if level_arg:
                level = args[1] if len(args) > 1 else kwargs.get("n")
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, level, 0]
            stack.append(len(spans))
            spans.append(span)
            if memory:
                tracemalloc.start()
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                if memory:
                    span[5] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                stack.pop()
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch_everywhere(self, original, replacement):
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "carlesonlab" and \
                    not mod_name.startswith("carlesonlab."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def install(self):
        """Wrap every target; a name the package no longer has reports 0."""
        for name, mod_name, attr in FUNCTION_SPANS:
            original = getattr(importlib.import_module(mod_name), attr, None)
            if original is not None:
                self._patch_everywhere(original, self._wrap(name, original))
        for name, mod_name, attr in COUNTERS:
            original = getattr(importlib.import_module(mod_name), attr, None)
            if original is not None:
                self._patch_everywhere(original, self._counter(name, original))
        for name, mod_name, cls_name, attr, memory in METHOD_SPANS:
            cls = getattr(importlib.import_module(mod_name), cls_name, None)
            original = vars(cls).get(attr) if cls is not None else None
            if original is not None:
                setattr(cls, attr, self._wrap(name, original, memory))
                self._undo.append((cls, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def mark(self):
        return len(self.spans), dict(self.counts)

    def pass_metrics(self, mark, wall, skipped_frac):
        """Per-layer metrics of the spans recorded since ``mark``.

        Every ``.s`` metric is self time: span duration minus the time its
        child spans cover, so the layers' times and bench.self_s sum to the
        traced pass's wall time.
        """
        first, counts0 = mark
        spans = self.spans[first:]
        child_s = [0.0] * len(spans)
        for span in spans:
            parent = span[3] - first
            if parent >= 0:
                child_s[parent] += span[2] - span[1]
        calls, self_s, peak = {}, {}, {}
        for span, covered in zip(spans, child_s):
            name = span[0]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (span[2] - span[1]
                                                    - covered)
            peak[name] = max(peak.get(name, 0), span[5])
        roots = sum(s[2] - s[1] for s in spans if s[3] < first)
        out = {key: 0.0 for key in PER_LAYER}
        for name in COUNTED:
            out[f"{name}.calls"] = float(calls.get(name, 0))
        for name in TIMED:
            out[f"{name}.s"] = self_s.get(name, 0.0)
        out["harness.self_s"] = self_s.get("harness", 0.0)
        out["bench.self_s"] = wall - roots
        layer_total = sum(self_s.values())
        out["trace.wall_s"] = wall
        out["trace.accounted_frac"] = layer_total / wall
        out["maximal.evaluator_build.peak_mb"] = \
            peak.get("maximal.evaluator_build", 0) / 2**20
        builds = calls.get("maximal.evaluator_build", 0)
        if builds:
            out["maximal.reuse"] = calls.get("maximal.sup_average", 0) / builds
        modular = self.counts.get("norms.modular", 0) \
            - counts0.get("norms.modular", 0)
        out["norms.modular.calls"] = float(modular)
        norms = calls.get("norms.luxemburg_norm", 0)
        if norms:
            out["norms.modular_per_norm"] = modular / norms
        out["harness.skipped_frac"] = skipped_frac
        for n, seconds in _level_times(spans, first).items():
            key = f"harness.level_s.{n}"
            if key in out:
                out[key] += seconds
        return out


def _level_times(spans, first):
    """Wall time per refinement level inside each harness level loop.

    A level runs from the start of its curve build to the start of the next
    level's build; the last level ends with the enclosing span.
    """
    builds = {}
    for span in spans:
        if span[0] == "curves.build" and span[3] >= first \
                and spans[span[3] - first][0] == "harness":
            builds.setdefault(span[3], []).append(span)
    out = {}
    for parent, group in builds.items():
        end = spans[parent - first][2]
        for span, nxt in zip(group, group[1:] + [None]):
            stop = nxt[1] if nxt is not None else end
            out[span[4]] = out.get(span[4], 0.0) + (stop - span[1])
    return out


def summarize(per_pass, untraced_walls):
    """Median over traced passes of each per-layer metric, plus overhead."""
    out = {key: statistics.median(p[key] for p in per_pass)
           for key in PER_LAYER}
    base = statistics.median(untraced_walls)
    out["trace.base_wall_s"] = base
    out["trace.overhead"] = out["trace.wall_s"] / base
    return out


def spans_json(tracer):
    return [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
             "level": s[4], "peak_bytes": s[5]} for s in tracer.spans]
