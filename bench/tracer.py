"""Spans around hypdim's public functions, installed from outside the package.

`Tracer.install()` replaces every public function of hypdim's `cli`,
`models`, `symbolic`, `pressure` and `dimension` modules, wherever a
hypdim module holds a reference to it, with a wrapper that records a
span, and wraps `ModelSystem.step`.  Wrapping each module attribute
matters: `cli` calls `measure_box_dimension` through its own global,
which is a different attribute from `hypdim.dimension.measure_box_dimension`.

A span is (name, start, end, parent, operation id) plus the work
counters below.  Spans stay in memory until `write_spans` is called.
Only the traced run installs the wrappers; the untraced run imports
hypdim and leaves it as it is.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
import types
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "models", "symbolic", "pressure", "dimension")


def _words_through(args) -> int:
    """Admissible words summed over k = 1..k_max, as the enumeration lists them."""
    a = (np.asarray(args["model"].transition) != 0).astype(float)
    vec = np.ones(a.shape[0])
    total = 0.0
    for _ in range(args["k_max"]):
        total += vec.sum()
        vec = a @ vec
    return int(total)


# span name -> function(bound arguments, result) -> {counter: amount}
COUNTERS = {
    "models.ModelSystem.step": lambda a, r: {"points": len(r[0])},
    "symbolic.cylinders": lambda a, r: {"words": len(r[0])},
    "symbolic.partition_sums_through": lambda a, r: {"words": _words_through(a)},
    "pressure.cover_rects": lambda a, r: {"depth": int(r[0])},
    "pressure.volume_curve": lambda a, r: {"cells": a["grid_resolution"] ** a["model"].n},
    "pressure.sample_local_stable_set": lambda a, r: {"points": len(r)},
    "dimension.box_count": lambda a, r: {"points": len(np.atleast_2d(a["points"])), "boxes": r},
    "dimension.invariant_set_sample": lambda a, r: {"points": len(r)},
    "cli.atomic_write": lambda a, r: {"bytes": len(a["text"].encode())},
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, op, child_seconds, counters]
        self.op = None
        self._local = threading.local()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        signature = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op, 0.0, None]
            self.spans.append(span)
            stack.append(len(self.spans) - 1)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if span[3] is not None:
                    self.spans[span[3]][5] += span[2] - span[1]
            if count:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[6] = count(bound.arguments, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the public functions at every hypdim module attribute naming them."""
        import hypdim
        from hypdim import cli, dimension, models, pressure, symbolic

        modules = (hypdim, cli, models, symbolic, pressure, dimension)
        owners = {m.__name__ for m in modules[1:]}
        wrapped = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if (
                    isinstance(value, types.FunctionType)
                    and not attr.startswith("_")
                    and value.__module__ in owners
                ):
                    if value not in wrapped:
                        layer = value.__module__.rsplit(".", 1)[1]
                        wrapped[value] = self._wrap(f"{layer}.{value.__name__}", value)
                    setattr(module, attr, wrapped[value])
        step = models.ModelSystem.step
        models.ModelSystem.step = self._wrap("models.ModelSystem.step", step)

    def write_spans(self, path: str, t0: float) -> None:
        """One JSON line per span, times in seconds since `t0`."""
        with open(path, "w") as handle:
            for i, (name, start, end, parent, op, _, counters) in enumerate(self.spans):
                record = {"id": i, "name": name, "start": start - t0, "end": end - t0,
                          "parent": parent, "op": op}
                if counters:
                    record["counters"] = {k: int(v) for k, v in counters.items()}
                handle.write(json.dumps(record) + "\n")

    def totals(self) -> dict:
        """Per span name: calls, self seconds and summed counters."""
        out = defaultdict(lambda: defaultdict(float))
        for name, start, end, _, op, child, counters in self.spans:
            if op is None:
                continue
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child
            for key, value in (counters or {}).items():
                entry[key] += value
        return out


def layer_metrics(totals: dict, rounds: int, extra: dict) -> dict:
    """The per-layer metrics of BENCHMARK.json, per timed round."""

    def get(name, key):
        return totals.get(name, {}).get(key, 0.0) / rounds

    box_points = get("dimension.box_count", "points")
    box_boxes = get("dimension.box_count", "boxes")
    cli_self = sum(v["self_s"] for k, v in totals.items() if k.startswith("cli.")) / rounds
    metrics = {
        "cli.calls": (get("cli.main", "calls"), "count"),
        "cli.self_s": (cli_self, "s"),
        "cli.bytes_out": (extra["stdout_bytes"] / rounds + get("cli.atomic_write", "bytes"), "bytes"),
        "models.step.calls": (get("models.ModelSystem.step", "calls"), "count"),
        "models.step.points": (get("models.ModelSystem.step", "points"), "count"),
        "models.step.s": (get("models.ModelSystem.step", "self_s"), "s"),
        "symbolic.cylinders.calls": (get("symbolic.cylinders", "calls"), "count"),
        "symbolic.cylinders.words": (get("symbolic.cylinders", "words"), "count"),
        "symbolic.cylinders.s": (get("symbolic.cylinders", "self_s"), "s"),
        "symbolic.partition_sums.words": (get("symbolic.partition_sums_through", "words"), "count"),
        "symbolic.partition_sums.s": (get("symbolic.partition_sums_through", "self_s"), "s"),
        "symbolic.pressure_spectral.calls": (get("symbolic.pressure_spectral", "calls"), "count"),
        "symbolic.pressure_spectral.s": (get("symbolic.pressure_spectral", "self_s"), "s"),
        "pressure.cover_rects.depth": (get("pressure.cover_rects", "depth"), "count"),
        "pressure.cover_rects.s": (get("pressure.cover_rects", "self_s"), "s"),
        "pressure.volume_curve.cells": (get("pressure.volume_curve", "cells"), "count"),
        "pressure.volume_curve.s": (get("pressure.volume_curve", "self_s"), "s"),
        "pressure.stable_sample.points": (get("pressure.sample_local_stable_set", "points"), "count"),
        "pressure.stable_sample.s": (get("pressure.sample_local_stable_set", "self_s"), "s"),
        "dimension.box_count.calls": (get("dimension.box_count", "calls"), "count"),
        "dimension.box_count.points": (box_points, "count"),
        "dimension.box_count.boxes": (box_boxes, "count"),
        "dimension.box_count.s": (get("dimension.box_count", "self_s"), "s"),
        "dimension.box_count.points_per_box": (box_points / box_boxes if box_boxes else 0.0, "ratio"),
        "dimension.invariant_sample.points": (get("dimension.invariant_set_sample", "points"), "count"),
        "dimension.invariant_sample.s": (get("dimension.invariant_set_sample", "self_s"), "s"),
        "dimension.bound_report.s": (get("dimension.bound_report", "self_s"), "s"),
        "dimension.expansion_rate.s": (get("dimension.expansion_rate", "self_s"), "s"),
    }
    metrics.update(extra["process"])
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
