"""Span tracing for the benchmark's traced run.

The tracer wraps the public functions and public methods of every
``permharmonic`` module at their module attributes (so a name one module
imports from another, such as ``transform.standard_irrep_transpose_apply``,
is wrapped where it is looked up) and restores the originals on uninstall.
The program's source is not touched.

Each span holds a name, start and end (ns), the index of its parent span, the
operation id and phase it ran under, and one count whose meaning depends on
the span name (see ``COUNTS``).  Spans are kept in flat ``array('q')``
columns in memory and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from array import array
from pathlib import Path

import numpy as np

from reference import partition_count

MODULES = ("permutations", "yor", "transform", "counting", "oracle", "verify", "cli")
PHASES = {"setup": 0, "timed": 1, "check": 2}


def _length(args, result) -> int:
    return int(np.shape(args[0])[0])


def _element_updates(n: int, blocks: int) -> int:
    return math.factorial(n) * blocks


# Per-span counts, computed from the call's arguments or its result.
COUNTS = {
    "transform.transform": _length,
    "transform.inverse_transform": _length,
    "transform.transform_counted": _length,
    "permutations.Permutation.decompose_adjacent": lambda args, result: len(result),
    "oracle.fourier_full": lambda args, result: _element_updates(args[1], partition_count(args[1])),
    "oracle.fourier_standard_block": lambda args, result: _element_updates(len(args[0]), 1),
    "oracle.stabilizer_projection": lambda args, result: _element_updates(sum(args[0]) - 1, 1),
    "oracle.derive_schur_constants": lambda args, result: args[0] * _element_updates(args[0], 1),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.phase = array("q")
        self.count = array("q")
        self._stack: list[int] = []
        self.current_op = -1
        self.current_phase = PHASES["setup"]
        self._patches: list[tuple[object, str, object, object]] = []

    def _wrap(self, fn, span_name: str):
        name_id = self._name_ids.setdefault(span_name, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(span_name)
        counter = COUNTS.get(span_name)
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.start)
            tracer.name.append(name_id)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.op.append(tracer.current_op)
            tracer.phase.append(tracer.current_phase)
            tracer.count.append(0)
            tracer.end.append(0)
            stack.append(idx)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = clock()
                stack.pop()
            if counter is not None:
                tracer.count[idx] = counter(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function and method of the package's modules."""
        if self._patches:
            return
        wrapped: dict[int, object] = {}
        targets = [sys.modules[f"permharmonic.{m}"] for m in MODULES] + [sys.modules["permharmonic"]]
        for module in targets:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not getattr(obj, "__module__", "").startswith("permharmonic"):
                    continue
                if inspect.isfunction(obj):
                    short = obj.__module__.rsplit(".", 1)[-1]
                    if id(obj) not in wrapped:
                        wrapped[id(obj)] = self._wrap(obj, f"{short}.{obj.__name__}")
                    self._patch(module, attr, obj, wrapped[id(obj)])
                elif inspect.isclass(obj) and id(obj) not in wrapped:
                    wrapped[id(obj)] = obj
                    short = obj.__module__.rsplit(".", 1)[-1]
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            span = f"{short}.{obj.__name__}.{meth}"
                            self._patch(obj, meth, fn, self._wrap(fn, span))

    def _patch(self, owner, attr, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original, replacement))

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def columns(self) -> dict[str, np.ndarray]:
        return {
            key: np.frombuffer(getattr(self, key), dtype=np.int64).copy()
            for key in ("name", "start", "end", "parent", "op", "phase", "count")
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.columns())


class SpanTable:
    """Spans as numpy columns, with self times derived."""

    def __init__(self, tracer: Tracer) -> None:
        self.names = tracer.names
        cols = tracer.columns()
        self.name = cols["name"]
        self.parent = cols["parent"]
        self.op = cols["op"]
        self.phase = cols["phase"]
        self.count = cols["count"]
        self.duration = (cols["end"] - cols["start"]).astype(np.float64) * 1e-9
        child_time = np.zeros_like(self.duration)
        has_parent = self.parent >= 0
        np.add.at(child_time, self.parent[has_parent], self.duration[has_parent])
        self.self_time = self.duration - child_time

    def mask(self, span_name: str, phase: str) -> np.ndarray:
        if span_name not in self.names:
            return np.zeros(self.name.shape, dtype=bool)
        return (self.name == self.names.index(span_name)) & (self.phase == PHASES[phase])

    def total(self, span_name: str, phase: str = "timed", field: str = "self_time") -> float:
        return float(np.sum(getattr(self, field)[self.mask(span_name, phase)]))

    def module_of(self, idx: np.ndarray) -> np.ndarray:
        modules = np.array([n.split(".", 1)[0] for n in self.names] or [""])
        return modules[self.name[idx]]
