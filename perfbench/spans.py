"""Spans and counts recorded around the benchmark's calls into the package.

The benchmark calls every package function through ``tracer.call(name,
fn, ...)``.  A ``Tracer`` records one span per call (name, start, end,
parent span, the run phase it fell in, and an optional tag) and keeps the
spans in memory until ``dump`` writes them out; ``NullTracer`` only makes
the call, so untraced runs pay one extra function call per package call.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter


class NullTracer:
    phase = "setup"

    def call(self, name, fn, *args, tag=None, **kwargs):
        return fn(*args, **kwargs)

    def span(self, name, tag=None):
        return nullcontext()

    def count(self, name, amount):
        pass


class Tracer:
    def __init__(self) -> None:
        # (name, tag, phase, start, end, parent index or -1)
        self.spans: list[tuple[str, str | None, str, float, float, int]] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self.phase = "setup"
        self._stack: list[int] = []

    @contextmanager
    def span(self, name, tag=None):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, tag, self.phase, 0.0, 0.0, parent))
        self._stack.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, tag, self.phase, start, end, parent)

    def call(self, name, fn, *args, tag=None, **kwargs):
        with self.span(name, tag):
            return fn(*args, **kwargs)

    def count(self, name, amount):
        self.counts[self.phase][name] += amount

    def totals(self) -> dict[str, dict[str, float]]:
        """Per phase: summed seconds by span name (and by "name[tag]"), plus counts."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for name, tag, phase, start, end, _ in self.spans:
            out[phase][name] += end - start
            if tag is not None:
                out[phase][f"{name}[{tag}]"] += end - start
        for phase, counts in self.counts.items():
            for name, amount in counts.items():
                out[phase][name] += amount
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for index, (name, tag, phase, start, end, parent) in enumerate(self.spans):
                record = {
                    "id": index,
                    "parent": parent,
                    "name": name,
                    "tag": tag,
                    "phase": phase,
                    "start": start,
                    "end": end,
                }
                fh.write(json.dumps(record) + "\n")
