"""Per-layer instrumentation installed from outside the package.

A probe replaces each named function in every loaded ``hpmropt`` namespace
that bound it (``from .pareto import nondominated_sort`` copies the name into
``pearl`` and ``nsga2``), and each named method on its class.  Nothing under
``src/`` is edited; ``remove()`` puts every original back.

``Probe(COUNTED)`` is the light variant used in timed runs: it counts
evaluations, failed evaluations and skipped policy updates and records no
spans.  ``Probe(TRACED, spans=True)`` wraps every layer below and keeps one
span ``(layer, start, end, parent span)`` per call in memory.
"""

from __future__ import annotations

import math
import sys
import time
from collections import Counter

import numpy as np

# (layer name, module, attribute); the attribute may be "Class.method"
TRACED = (
    ("pareto.insert", "pareto", "ParetoBuffer.insert"),
    ("pareto.nondominated_sort", "pareto", "nondominated_sort"),
    ("pareto.crowding_distance", "pareto", "crowding_distance"),
    ("pareto.niching_rank", "pareto", "niching_rank"),
    ("pearl.ppo_update", "pearl", "ppo_update"),
    ("pearl.sample_action", "pearl", "sample_action"),
    ("pearl.run_agent", "pearl", "run_agent"),
    ("pearl.merge_fronts", "pearl", "merge_fronts"),
    ("pearl.random_search", "pearl", "random_search"),
    ("environment.evaluate", "environment", "DesignEvaluator.evaluate"),
    ("economics.build_cash_flows", "economics", "build_cash_flows"),
    ("economics.lcoe", "economics", "lcoe"),
    ("constraints.evaluate_constraints", "constraints", "evaluate_constraints"),
    ("design_space.from_unit_cube", "design_space", "from_unit_cube"),
    ("nsga2.run_nsga2", "nsga2", "run_nsga2"),
    ("metrics.export_front", "metrics", "export_front"),
    ("metrics.render_scatter", "metrics", "render_scatter"),
    ("metrics.hypervolume_2d", "metrics", "hypervolume_2d"),
    ("runio.run_optimize", "runio", "run_optimize"),
    ("runio.write_history", "runio", "write_history"),
)
COUNTED = tuple(t for t in TRACED
                if t[0] in ("environment.evaluate", "pearl.ppo_update"))


def _insert_kept(probe, args, kwargs, result):
    buffer, point = args[0], args[1] if len(args) > 1 else kwargs["point"]
    probe.extra["pareto.insert.kept"] += any(p is point for p in buffer.entries)


def _sorted_points(probe, args, kwargs, result):
    points = args[0] if args else kwargs["points"]
    probe.extra["pareto.nondominated_sort.points"] += len(points)


def _update_skipped(probe, args, kwargs, result):
    probe.extra["pearl.ppo_update.skipped"] += bool(getattr(result, "skipped", False))


def _fuel_batches(probe, args, kwargs, result):
    names = ("design", "qoi", "scenario", "econ")
    bound = {**dict(zip(names, args)), **kwargs}
    econ = bound.get("econ") or bound["scenario"].econ
    interval = min(bound["qoi"].lifetime, float(econ.replacement_period_years))
    probe.extra["economics.build_cash_flows.fuel_batches"] += \
        math.ceil(econ.plant_life_years / interval)


HOOKS = {
    "pareto.insert": _insert_kept,
    "pareto.nondominated_sort": _sorted_points,
    "pearl.ppo_update": _update_skipped,
    "economics.build_cash_flows": _fuel_batches,
}


def _hpmropt_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "hpmropt" or name.startswith("hpmropt."))]


class Probe:
    def __init__(self, layers=COUNTED, spans: bool = False):
        self.layers = tuple(layers)
        self.record_spans = spans
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        n = len(self.layers)
        self.calls = [0] * n
        self.failed = [0] * n
        self.spans: list = []
        self._stack: list[int] = []
        self.extra: Counter[str] = Counter()   # filled by HOOKS

    def count(self, layer: str) -> int:
        return self.calls[self._index(layer)]

    def failures(self, layer: str) -> int:
        return self.failed[self._index(layer)]

    def _index(self, layer: str) -> int:
        return [name for name, _, _ in self.layers].index(layer)

    def install(self) -> "Probe":
        for lid, (layer, module_name, attr) in enumerate(self.layers):
            module = sys.modules[f"hpmropt.{module_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                targets = [(owner, meth)]
            else:
                original = getattr(module, attr)
                targets = [(m, name) for m in _hpmropt_modules()
                           for name, value in vars(m).items() if value is original]
            wrapper = self._wrap(lid, original, HOOKS.get(layer))
            for owner, name in targets:
                self._patched.append((owner, name, original))
                setattr(owner, name, wrapper)
        return self

    def remove(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def __enter__(self) -> "Probe":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()

    def _wrap(self, lid, fn, hook):
        probe = self
        if not self.record_spans:
            def counted(*args, **kwargs):
                probe.calls[lid] += 1
                try:
                    result = fn(*args, **kwargs)
                except Exception:
                    probe.failed[lid] += 1
                    raise
                if hook is not None:
                    hook(probe, args, kwargs, result)
                return result
            return counted

        clock = time.perf_counter

        def traced(*args, **kwargs):
            probe.calls[lid] += 1
            stack = probe._stack
            spans = probe.spans
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                probe.failed[lid] += 1
                raise
            finally:
                spans[index] = (lid, start, clock(), parent)
                stack.pop()
            if hook is not None:
                hook(probe, args, kwargs, result)
            return result
        return traced

    def layer_times(self) -> dict[str, tuple[float, float]]:
        """Per layer: (inclusive seconds, self seconds), where self time is
        the span's duration minus the durations of its direct child spans."""
        if not self.spans:
            return {name: (0.0, 0.0) for name, _, _ in self.layers}
        table = np.array(self.spans, dtype=float)
        lid, start, end, parent = table.T
        duration = end - start
        child = np.zeros(len(table))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent].astype(int), duration[has_parent])
        n = len(self.layers)
        inclusive = np.bincount(lid.astype(int), weights=duration, minlength=n)
        own = np.bincount(lid.astype(int), weights=duration - child, minlength=n)
        return {name: (float(inclusive[i]), float(own[i]))
                for i, (name, _, _) in enumerate(self.layers)}

    def write_spans(self, path) -> None:
        names = [name for name, _, _ in self.layers]
        with open(path, "w") as fh:
            fh.write("span\tlayer\tstart_s\tend_s\tparent\n")
            for index, (lid, start, end, parent) in enumerate(self.spans):
                fh.write(f"{index}\t{names[lid]}\t{start!r}\t{end!r}\t{parent}\n")
