"""In-memory spans recorded around calls into bashsynth's layers.

A span is ``[name, start, end, parent, run]``: ``name`` is
``<layer>.<call>``, ``parent`` the enclosing span's record (``None`` at top
level of its thread) and ``run`` the batch the span belongs to (-1 for
set-up). Spans stay in memory until the run ends; :meth:`Tracer.write`
then saves them as JSON lines with ``parent`` as a line index.
"""

from __future__ import annotations

import contextlib
import json
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter


class _Span:
    __slots__ = ("tracer", "name", "record")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        stack = self.tracer._stack()
        record = [self.name, 0.0, 0.0, stack[-1] if stack else None, self.tracer.run_id]
        stack.append(record)
        self.tracer.spans.append(record)
        self.record = record
        record[1] = perf_counter()

    def __exit__(self, *exc: object) -> bool:
        self.record[2] = perf_counter()
        self.tracer._stack().pop()
        return False


class Tracer:
    """Records nested spans: ``with tracer.span("layer.call"): ...``.

    Each thread keeps its own stack of open spans, so spans opened from
    worker threads nest correctly within that thread.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.run_id = -1
        self._local = threading.local()

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def total(self, name: str, runs: set[int]) -> tuple[float, int]:
        """Summed duration and count of spans called ``name`` in ``runs``."""
        seconds, count = 0.0, 0
        for s in self.spans:
            if s[0] == name and s[4] in runs:
                seconds += s[2] - s[1]
                count += 1
        return seconds, count

    def self_times(self, runs: set[int]) -> dict[str, float]:
        """Per-layer self time in ``runs``: span duration minus its children's."""
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s[3] is not None:
                child_time[id(s[3])] += s[2] - s[1]
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s[4] in runs:
                out[s[0].split(".", 1)[0]] += s[2] - s[1] - child_time[id(s)]
        return dict(out)

    def write(self, path: Path) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        with path.open("w", encoding="utf-8") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": -1 if parent is None else index[id(parent)],
                    "run": run,
                }) + "\n")


class NullTracer:
    """Stands in for :class:`Tracer` in untraced batches."""

    run_id = -1
    _null = contextlib.nullcontext()

    def span(self, name: str) -> contextlib.nullcontext:
        return self._null


NULL = NullTracer()


def span_cost(samples: int = 20000) -> float:
    """Seconds a recorded span adds over an untraced one, on empty spans."""
    costs = []
    for tracer in (Tracer(), NULL):
        start = perf_counter()
        for _ in range(samples):
            with tracer.span("calibrate.empty"):
                pass
        costs.append((perf_counter() - start) / samples)
    return max(0.0, costs[0] - costs[1])
