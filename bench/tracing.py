"""Spans recorded from the benchmark's side around calls into ocb's layers.

A span is (name, start, end, parent). Spans are kept in flat arrays until
the traced round ends, then written out and reduced to self times: a
span's duration minus the durations of its child spans, on the host-speed
corrected time axis of a HostClock.
"""
from __future__ import annotations

import contextlib
import json
from array import array
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("B")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, note=None):
        """Return fn wrapped in a span; note(*args) runs before the span opens."""
        nid = self.name_id(name)
        name_append = self.name.append
        parent_append = self.parent.append
        start_append = self.start.append
        end_append = self.end.append
        starts = self.start
        ends = self.end
        stack = self._stack
        push = stack.append
        pop = stack.pop

        def traced(*args, **kwargs):
            if note is not None:
                note(*args)
            idx = len(starts)
            name_append(nid)
            parent_append(stack[-1])
            end_append(0.0)
            push(idx)
            start_append(perf_counter())
            result = fn(*args, **kwargs)
            ends[idx] = perf_counter()
            pop()
            return result

        return traced

    def __len__(self) -> int:
        return len(self.start)

    def write(self, directory: Path) -> None:
        """Dump the spans as raw arrays plus a JSON index of names."""
        directory.mkdir(parents=True, exist_ok=True)
        for field in ("name", "parent", "start", "end"):
            with open(directory / f"{field}.{getattr(self, field).typecode}", "wb") as fh:
                getattr(self, field).tofile(fh)
        (directory / "names.json").write_text(json.dumps(self.names) + "\n")

    def self_times(self, durations: list[float]) -> dict[str, float]:
        """Total self time per span name."""
        child = [0.0] * len(durations)
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += durations[idx]
        totals = [0.0] * len(self.names)
        for idx, nid in enumerate(self.name):
            totals[nid] += durations[idx] - child[idx]
        return dict(zip(self.names, totals))

    def of(self, name: str, durations: list[float]) -> list[float]:
        nid = self.names.index(name)
        return [d for d, n in zip(durations, self.name) if n == nid]


@contextlib.contextmanager
def patched(*replacements):
    """Temporarily set (owner, attribute, value) triples; restore on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
