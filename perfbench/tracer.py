"""Span tracing of suitaverify's public functions, for the traced benchmark run only.

``Tracer.install`` replaces each traced function at every attribute through
which callers reach it: a module-level function is swapped in every loaded
``suitaverify`` module that binds it (``green1d`` imports
``find_root_monotone`` by name, so ``green1d.find_root_monotone`` is wrapped
too), and a method is swapped on its class.  Spans are kept in memory with
the index of their parent span; a span's self time is its duration minus
the durations of its direct children.  ``uninstall`` restores the originals.
"""
from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

__all__ = ["TRACED", "PER_LAYER", "Tracer", "span_stats", "layer_metrics"]

# (span name, module, attribute path) of every traced public function
TRACED = (
    ("green1d.AnnulusGreen.value", "suitaverify.green1d", "AnnulusGreen.value"),
    ("green1d.AnnulusGreen.grad", "suitaverify.green1d", "AnnulusGreen.grad"),
    ("green1d.level_flux_and_isoperimetric", "suitaverify.green1d", "level_flux_and_isoperimetric"),
    ("green1d.sublevel_volume", "suitaverify.green1d", "sublevel_volume"),
    ("numerics.find_root_monotone", "suitaverify.numerics", "find_root_monotone"),
    ("numerics.SampleStream.points", "suitaverify.numerics", "SampleStream.points"),
    ("numerics.golden_section_max", "suitaverify.numerics", "golden_section_max"),
    ("bergman.kernel_reinhardt", "suitaverify.bergman", "kernel_reinhardt"),
    ("bergman.kernel_annulus", "suitaverify.bergman", "kernel_annulus"),
    ("domains.monomial_norm", "suitaverify.domains", "monomial_norm"),
    ("domains.volume", "suitaverify.domains", "volume"),
    ("indicatrix.indicatrix_volume_numeric", "suitaverify.indicatrix", "indicatrix_volume_numeric"),
    ("suita.figure_scan", "suitaverify.suita", "figure_scan"),
    ("suita.maximize_F", "suitaverify.suita", "maximize_F"),
    ("suita.monotonicity_experiment", "suitaverify.suita", "monotonicity_experiment"),
    ("cli.run", "suitaverify.cli", "run"),
)

_LEVEL = "green1d.level_flux_and_isoperimetric"
_VALUE = "green1d.AnnulusGreen.value"

# per-layer metric name -> unit; "better" is "lower" for all of them
PER_LAYER = {
    "green1d.AnnulusGreen.value.calls": "count",
    "green1d.AnnulusGreen.value.points": "count",
    "green1d.AnnulusGreen.value.mode_points": "count",
    "green1d.AnnulusGreen.value.busy_s": "s",
    "green1d.AnnulusGreen.grad.busy_s": "s",
    "green1d.level_flux_and_isoperimetric.self_s": "s",
    "green1d.sublevel_volume.self_s": "s",
    "green1d.value_calls_per_root": "calls/root",
    "numerics.find_root_monotone.calls": "count",
    "numerics.find_root_monotone.self_s": "s",
    "numerics.SampleStream.points.points": "count",
    "numerics.SampleStream.points.busy_s": "s",
    "numerics.golden_section_max.calls": "count",
    "numerics.golden_section_max.f_evals": "count",
    "bergman.kernel_reinhardt.calls": "count",
    "bergman.kernel_reinhardt.busy_s": "s",
    "bergman.kernel_annulus.busy_s": "s",
    "domains.monomial_norm.calls": "count",
    "domains.monomial_norm.busy_s": "s",
    "domains.volume.busy_s": "s",
    "indicatrix.indicatrix_volume_numeric.calls": "count",
    "indicatrix.indicatrix_volume_numeric.busy_s": "s",
    "suita.figure_scan.self_s": "s",
    "suita.maximize_F.self_s": "s",
    "suita.monotonicity_experiment.self_s": "s",
    "cli.run.self_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """In-memory span recorder with per-span counters."""

    def __init__(self):
        self._installed = []
        self.reset()

    def reset(self):
        self.names, self.parents, self.starts, self.ends = [], [], [], []
        self.counts = defaultdict(float)  # (span name, counter) -> total
        self._stack = []
        self._active = defaultdict(int)

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        hook = _HOOKS.get(name)
        defaults = {k: v.default for k, v in inspect.signature(fn).parameters.items()}

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ends.append(0.0)
            self._stack.append(idx)
            self._active[name] += 1
            self.starts.append(perf_counter())
            try:
                if hook:
                    args = hook(self, name, defaults, args, kwargs)
                return fn(*args, **kwargs)
            finally:
                self.ends[idx] = perf_counter()
                self._active[name] -= 1
                self._stack.pop()

        return traced

    def install(self):
        loaded = [m for k, m in list(sys.modules.items()) if k == "suitaverify" or k.startswith("suitaverify.")]
        for name, module, path in TRACED:
            owner = sys.modules[module]
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
                orig = owner.__dict__[attr]
                self._installed.append((owner, attr, orig))
                setattr(owner, attr, self._wrap(name, orig))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, orig)
            for mod in loaded:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._installed.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._installed):
            setattr(owner, attr, orig)
        self._installed = []


# Hooks record counters of one call; they may replace positional arguments.


def _arg(defaults, args, kwargs, pos, key):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(key, defaults[key])


def _value_hook(tracer, name, defaults, args, kwargs):
    points = int(np.size(_arg(defaults, args, kwargs, 1, "z")))
    tracer.counts[name, "points"] += points
    tracer.counts[name, "mode_points"] += points * args[0].n_modes
    if tracer._active[_LEVEL]:
        tracer.counts[name, "in_level"] += 1
    return args


def _level_hook(tracer, name, defaults, args, kwargs):
    tracer.counts[name, "roots"] += _arg(defaults, args, kwargs, 2, "n_nodes")
    return args


def _points_hook(tracer, name, defaults, args, kwargs):
    tracer.counts[name, "points"] += _arg(defaults, args, kwargs, 1, "count")
    return args


def _golden_hook(tracer, name, defaults, args, kwargs):
    f = args[0]

    def counted(x):
        tracer.counts[name, "f_evals"] += 1
        return f(x)

    return (counted,) + tuple(args[1:])


_HOOKS = {
    _VALUE: _value_hook,
    _LEVEL: _level_hook,
    "numerics.SampleStream.points": _points_hook,
    "numerics.golden_section_max": _golden_hook,
}


def span_stats(names, parents, starts, ends):
    """Per span name: calls, busy (outermost spans only) and self seconds."""
    dur = [e - s for s, e in zip(starts, ends)]
    child = [0.0] * len(dur)
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += dur[i]
    stats = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    for i, name in enumerate(names):
        st = stats[name]
        st["calls"] += 1
        st["self_s"] += dur[i] - child[i]
        p = parents[i]
        while p >= 0 and names[p] != name:
            p = parents[p]
        if p < 0:  # not nested in a span of the same name
            st["busy_s"] += dur[i]
    return stats


def layer_metrics(tracer):
    """Per-layer metrics of the spans recorded since the last reset (no trace.overhead_s)."""
    st = span_stats(tracer.names, tracer.parents, tracer.starts, tracer.ends)
    c = tracer.counts
    out = {}
    for metric in PER_LAYER:
        if metric == "trace.overhead_s":
            continue
        name, _, field = metric.rpartition(".")
        if metric == "green1d.value_calls_per_root":
            roots = c[_LEVEL, "roots"]
            out[metric] = c[_VALUE, "in_level"] / roots if roots else 0.0
        elif field in ("calls", "busy_s", "self_s"):
            out[metric] = float(st[name][field]) if name in st else 0.0
        else:
            out[metric] = float(c[name, field])
    return out
