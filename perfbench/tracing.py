"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent).  The layer of a span is the part of its
name before the first dot, which is the rvlbm module the call belongs to
(``scheme.run`` -> ``scheme``); ``bench`` marks the benchmark's own spans.
Spans stay in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; `span` is a context manager around one call."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, time.perf_counter(), float("nan"), parent)
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the part of it that its children cover."""
        children: dict[int, list[Span]] = {}
        for sp in self.spans:
            if sp.parent is not None:
                children.setdefault(sp.parent, []).append(sp)
        out = []
        for i, sp in enumerate(self.spans):
            covered = 0.0
            cursor = sp.start
            for ch in sorted(children.get(i, ()), key=lambda c: c.start):
                lo, hi = max(ch.start, cursor, sp.start), min(ch.end, sp.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out.append(sp.duration - covered)
        return out

    def subtree(self, root: int) -> list[int]:
        """Indices of `root` and every span below it."""
        inside = {root}
        for i in range(root + 1, len(self.spans)):
            if self.spans[i].parent in inside:
                inside.add(i)
        return sorted(inside)

    def to_json(self) -> list[dict]:
        selfs = self.self_times()
        return [
            {"name": sp.name, "start": sp.start, "end": sp.end, "parent": sp.parent,
             "self": st}
            for sp, st in zip(self.spans, selfs)
        ]


class NullTracer:
    """Stand-in for untraced operations: the same call sites, no recording."""

    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null
