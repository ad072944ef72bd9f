"""Span recording for the traced benchmark run.

The traced run wraps module-level functions of the ``spdc`` layers from the
outside (see :mod:`layers`) and records one span per wrapped call: name,
start, end, parent span and solve id.  Spans are kept in memory in compact
columns and written out when the run ends.  Counters are recorded at the same
boundaries, keyed by solve id and counter name.

A span's self time is its duration minus the time covered by its direct
children.  Each span also records the bookkeeping time its wrapper spent
outside the call (opening the span, counter updates, closing it); that time
is charged neither to the span nor to its parent, so a parent's self time is
not inflated by the tracer.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from collections import defaultdict

import numpy as np

NO_PARENT = -1


class Tracer:
    """In-memory span and counter store for one traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("i")
        self._solve = array("i")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._overhead = array("d")
        self._stack: list[int] = []
        self.solve = -1
        self.counters: dict[tuple[int, str], float] = defaultdict(float)
        self.now = time.perf_counter

    def name_id(self, name: str) -> int:
        """Intern a span name; wrappers resolve their ids once, up front."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int, t_in: float | None = None) -> int:
        """Start a span under the innermost open span; returns its index.

        ``t_in`` is when the wrapper's bookkeeping before the span began, if
        it did any; that time is the span's overhead too.
        """
        if t_in is None:
            t_in = self.now()
        idx = len(self._start)
        self._name.append(name_id)
        self._solve.append(self.solve)
        self._parent.append(self._stack[-1] if self._stack else NO_PARENT)
        self._end.append(0.0)
        self._stack.append(idx)
        start = self.now()
        self._start.append(start)
        self._overhead.append(start - t_in)
        return idx

    def close(self, idx: int, end: float) -> None:
        """End the innermost span at ``end``; time spent since is overhead."""
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {idx} closed while span {top} is innermost")
        self._end[idx] = end
        self._overhead[idx] += self.now() - end

    @contextlib.contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code."""
        idx = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(idx, self.now())

    def current_name(self) -> int:
        """Name id of the innermost open span, or -1 outside any span."""
        return self._name[self._stack[-1]] if self._stack else -1

    def count(self, key: str, value: float = 1.0) -> None:
        self.counters[self.solve, key] += value

    def table(self) -> dict[str, np.ndarray]:
        """The recorded spans as numpy columns (open spans have end 0)."""
        return {
            "name": np.frombuffer(self._name, dtype=np.int32).copy(),
            "solve": np.frombuffer(self._solve, dtype=np.int32).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
            "overhead": np.frombuffer(self._overhead, dtype=np.float64).copy(),
        }

    def counter_totals(self) -> dict[str, float]:
        """Counters summed over solves."""
        out: dict[str, float] = defaultdict(float)
        for (_, key), value in self.counters.items():
            out[key] += value
        return dict(out)

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.table())


def self_times(table: dict[str, np.ndarray]) -> np.ndarray:
    """Per-span self time: duration minus the time its direct children cover.

    A child covers its own duration plus its wrapper's bookkeeping around the
    call.  Spans come from one thread, so siblings never overlap and the covered
    time is a plain sum.
    """
    dur = table["end"] - table["start"]
    covered = np.zeros_like(dur)
    has_parent = table["parent"] != NO_PARENT
    np.add.at(covered, table["parent"][has_parent],
              (dur + table["overhead"])[has_parent])
    return dur - covered
