"""In-memory span recorder for the traced benchmark run (stdlib only).

Spans are taken from outside the package, around each library call. Each
span records its name, start, end, parent span and run id, the CPU time of
this process plus its reaped children (pool workers) spent inside it, and the
process peak RSS at its end. Spans stay in memory until ``write`` is called.
"""
from __future__ import annotations

import json
import resource
import time
from contextlib import contextmanager


def cpu_seconds() -> float:
    """User + system CPU of this process and of its children that have ended."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def maxrss_mib() -> float:
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Nested spans; a disabled tracer records nothing and costs one generator."""

    def __init__(self, run_id: str, enabled: bool = True):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        """Time the body; the yielded dict takes counts that belong to the span."""
        if not self.enabled:
            yield attrs
            return
        record = {
            "run": self.run_id,
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        cpu0 = cpu_seconds()
        record["start"] = time.perf_counter()
        try:
            yield attrs
        finally:
            record["end"] = time.perf_counter()
            record["cpu_s"] = cpu_seconds() - cpu0
            record["maxrss_mb"] = maxrss_mib()
            self._open.pop()

    def mark(self) -> int:
        """Index of the next span, to select the spans of one iteration later."""
        return len(self.spans)

    def select(self, name: str, start: int, stop: int | None = None) -> list[dict]:
        return [s for s in self.spans[start:stop] if s["name"] == name]

    def seconds(self, name: str, start: int, stop: int | None = None, key: str = "wall") -> float:
        """Summed wall (or ``cpu``) seconds of the spans called ``name`` in a range."""
        spans = self.select(name, start, stop)
        if key == "cpu":
            return sum(s["cpu_s"] for s in spans)
        return sum(s["end"] - s["start"] for s in spans)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")
