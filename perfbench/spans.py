"""In-memory spans and counters for the traced benchmark run.

Spans are recorded around calls into the library from the benchmark's own
code; nothing inside the library is instrumented.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Records (name, start, end, parent, trace id) spans and named counts.

    `path` marks spans on the command's own call path; breakdown and probe
    spans are recorded with path=False so they stay out of the attributed
    command time.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, trace_id: str = "", path: bool = True):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = {"name": name, "trace": trace_id, "parent": parent, "path": path}
        self.spans.append(record)
        self._stack.append(index)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, trace_id: str = "", path: bool = True, **kwargs):
        with self.span(name, trace_id, path):
            return fn(*args, **kwargs)

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[name] += value

    def mark(self) -> int:
        return len(self.spans)

    def totals(self, since: int = 0, path_only: bool = False) -> dict[str, tuple[float, int]]:
        """Per span name, for spans recorded after `since`: the summed duration
        in seconds and the number of distinct trace ids (tiles) touched."""
        seconds: dict[str, float] = defaultdict(float)
        traces: dict[str, set] = defaultdict(set)
        for record in self.spans[since:]:
            if path_only and not record["path"]:
                continue
            seconds[record["name"]] += record["end"] - record["start"]
            if record["trace"]:
                traces[record["name"]].add(record["trace"])
        return {name: (total, len(traces[name])) for name, total in seconds.items()}

    def dump(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
