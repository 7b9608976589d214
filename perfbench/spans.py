"""In-memory spans for traced benchmark runs, and per-layer self time.

A span is ``{"id", "name", "start", "end", "parent", "run"}`` with times
from :func:`time.perf_counter`.  Spans are kept in memory while the run
is measured and written as JSONL only at the end.  A layer's *self time*
is the duration of its spans minus the part of each span's interval that
its child spans cover.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path


class Recorder:
    """Collects spans; parents come from a per-thread stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name, start, end, parent=None, run=None) -> dict:
        """Record a finished span; returns it."""
        with self._lock:
            span = {
                "id": len(self.spans), "name": name, "start": start, "end": end,
                "parent": parent, "run": run,
            }
            self.spans.append(span)
        return span

    def open(self, name: str, run=None) -> dict:
        """Start a span as a child of this thread's innermost open span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if run is None and parent is not None:
            run = parent["run"]
        span = self.add(name, time.perf_counter(), None,
                        parent=parent["id"] if parent else None, run=run)
        stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    @contextmanager
    def span(self, name: str, run=None):
        span = self.open(name, run)
        try:
            yield span
        finally:
            self.close(span)

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, cursor = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds of self time per span name, summed over all spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    totals: dict[str, float] = {}
    for span in spans:
        duration = span["end"] - span["start"]
        covered = _covered(children.get(span["id"], []), span["start"], span["end"])
        totals[span["name"]] = totals.get(span["name"], 0.0) + duration - covered
    return totals


def format_table(totals: dict[str, float], wall: float) -> str:
    """A per-layer self-time table, largest first, with shares of ``wall``."""
    lines = [f"{'layer':<22}{'self_s':>10}{'share':>8}"]
    for name, seconds in sorted(totals.items(), key=lambda item: -item[1]):
        share = seconds / wall if wall else 0.0
        lines.append(f"{name:<22}{seconds:>10.4f}{share:>8.1%}")
    lines.append(f"{'(run wall)':<22}{wall:>10.4f}")
    return "\n".join(lines)
