"""In-memory span recorder for the traced run.

Spans are recorded from the benchmark's own files, around the calls into
each layer's public functions; nothing under ``src/`` is instrumented.
One record is ``(name, start, end, parent, op_id, attrs)``; a span's self
time is its duration minus the duration of its direct children.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Recorder:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op_id = -1  # spans of one request share this identifier

    @contextmanager
    def span(self, name: str, **attrs):
        idx = len(self.spans)
        rec = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "op_id": self.op_id,
            **attrs,
        }
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, list[float]]:
        """Self time of every finished span, grouped by span name."""
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None and s["end"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, list[float]] = defaultdict(list)
        for i, s in enumerate(self.spans):
            if s["end"] is not None:
                out[s["name"]].append(s["end"] - s["start"] - child_time[i])
        return out

    def durations(self, name: str, **where) -> list[float]:
        return [
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name
            and s["end"] is not None
            and all(s.get(k) == v for k, v in where.items())
        ]

    def write(self, path, **header) -> None:
        with open(path, "w") as fh:
            json.dump({**header, "spans": self.spans}, fh)
