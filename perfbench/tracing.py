"""Span recording around calls into the canstream package, from outside it.

`Tracer` replaces functions in the namespaces of the traced modules with thin
wrappers that record one span per call: (name, start, end, parent). Because
the package imports its helpers by name (`from .components import
buffer_step`), a function is wrapped in every traced module that looks it up,
so `system.tick_system` calling `buffer_step` is seen just like a direct
call. All wrappers of one function share its canonical name
(`components.buffer_step`, `primitives.pr_add`, `core.validate_scenario`).

Spans live in flat arrays while tracing runs and are written out afterwards.
A span's self time is its duration minus the spans of its direct children
(calls are synchronous and strictly nested, so children never overlap), minus
the wrapper cost each child adds outside its own span, which is calibrated on
a no-op function when the tracer is installed.
"""
from __future__ import annotations

import json
from array import array
from pathlib import Path
from time import perf_counter_ns
from types import FunctionType, ModuleType

# Names in the trace that the package spells privately.
RENAMES = {
    "serialize._snapshot_to_obj": "serialize.snapshot_encode",
    "serialize._snapshot_from_obj": "serialize.snapshot_decode",
}

CALIBRATION_CALLS = 20000


def traced_names(module: ModuleType) -> list[str]:
    """The module attributes the tracer wraps: public functions of the layer.

    Checkers contribute only their `check_*` predicates; serialize adds the
    two snapshot codecs so the trace-load cost can be split.
    """
    short = module.__name__.rpartition(".")[2]
    names = [
        name for name, value in vars(module).items()
        if isinstance(value, FunctionType) and not name.startswith("_")
        and value.__module__.startswith("canstream.")
    ]
    if short == "checkers":
        names = [name for name in names if name.startswith("check_")]
    if short == "serialize":
        names += ["_snapshot_to_obj", "_snapshot_from_obj"]
    return names


def canonical_name(fn: FunctionType) -> str:
    name = f"{fn.__module__.removeprefix('canstream.')}.{fn.__name__}"
    return RENAMES.get(name, name)


class Tracer:
    """Records spans for the wrapped functions while installed (a context manager)."""

    def __init__(self, modules: list[ModuleType]):
        self.modules = modules
        self.names: list[str] = []
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.name_ids = array("H")
        self._stack = [-1]
        self._originals: list[tuple[ModuleType, str, FunctionType]] = []
        self.outside_ns = 0.0

    def _wrap(self, fn: FunctionType):
        name = canonical_name(fn)
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        starts, ends, parents, name_ids, stack = (
            self.starts, self.ends, self.parents, self.name_ids, self._stack)

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter_ns()
                stack.pop()

        return traced

    def _calibrate(self) -> None:
        """Measure the wrapper cost a caller pays outside the callee's span."""
        def noop():
            return None

        wrapped = self._wrap(noop)
        first = len(self.starts)
        begin = perf_counter_ns()
        for _ in range(CALIBRATION_CALLS):
            wrapped()
        total = perf_counter_ns() - begin
        inside = sum(self.ends[first:]) - sum(self.starts[first:])
        begin = perf_counter_ns()
        for _ in range(CALIBRATION_CALLS):
            noop()
        bare = perf_counter_ns() - begin
        self.outside_ns = max(0.0, (total - inside - bare) / CALIBRATION_CALLS)
        self.clear()
        self.names.clear()

    def clear(self) -> None:
        for arr in (self.starts, self.ends, self.parents, self.name_ids):
            del arr[:]

    def __enter__(self) -> "Tracer":
        self._calibrate()
        for module in self.modules:
            for attr in traced_names(module):
                fn = getattr(module, attr)
                self._originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def __len__(self) -> int:
        return len(self.starts)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per name: calls, inclusive ns and self ns, summed over all spans."""
        n = len(self.starts)
        durations = [self.ends[i] - self.starts[i] for i in range(n)]
        child_ns = [0] * n
        child_count = [0] * n
        parents = self.parents
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child_ns[p] += durations[i]
                child_count[p] += 1
        out = {name: {"calls": 0, "total_ns": 0, "self_ns": 0.0} for name in self.names}
        outside = self.outside_ns
        for i in range(n):
            entry = out[self.names[self.name_ids[i]]]
            entry["calls"] += 1
            entry["total_ns"] += durations[i]
            entry["self_ns"] += max(0.0, durations[i] - child_ns[i] - child_count[i] * outside)
        return out

    def write(self, path: Path) -> None:
        """Write the spans as a JSON header line followed by the raw arrays."""
        header = {
            "names": self.names,
            "count": len(self.starts),
            "arrays": [["start_ns", "q"], ["end_ns", "q"], ["parent", "q"], ["name_id", "H"]],
            "outside_ns": self.outside_ns,
        }
        with path.open("wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.starts, self.ends, self.parents, self.name_ids):
                arr.tofile(fh)
