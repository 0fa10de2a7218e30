"""In-memory spans recorded by the benchmark around calls into the
program's layers.

A span is (trace, id, parent, name, start_ns, end_ns). Spans of one
Monte Carlo rep or one pass share a trace id. Parents come from the
nesting of begin/end calls. Nothing is written until `write`.
"""

from __future__ import annotations

import csv
import gzip
from collections import defaultdict
from time import perf_counter_ns


class Tracer:
    """Records spans; begin returns a token that end closes."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[tuple] = []
        self._next_id = 0

    def begin(self, trace, name: str) -> tuple:
        parent = self._stack[-1][1] if self._stack else -1
        token = (trace, self._next_id, parent, name, perf_counter_ns())
        self._next_id += 1
        self._stack.append(token)
        return token

    def end(self, token: tuple) -> None:
        end = perf_counter_ns()
        if self._stack.pop() is not token:
            raise RuntimeError(f"span {token[3]} closed out of order")
        self.spans.append(token + (end,))

    def write(self, path) -> None:
        with gzip.open(path, "wt", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["trace", "span", "parent", "name", "start_ns", "end_ns"])
            for trace, sid, parent, name, start, end in self.spans:
                writer.writerow(["/".join(map(str, trace)), sid, parent, name, start, end])


class NullTracer:
    """Same interface as Tracer, records nothing: the untraced replay."""

    spans: tuple = ()

    def begin(self, trace, name: str) -> None:
        return None

    def end(self, token) -> None:
        return None


def durations(spans, name: str) -> list[int]:
    """Wall durations in ns of every span called `name`."""
    return [end - start for _, _, _, n, start, end in spans if n == name]


def self_times(spans) -> dict[str, list[int]]:
    """Self time in ns of every span, grouped by name: its duration
    minus the time its direct children cover."""
    covered: dict[int, int] = defaultdict(int)
    for _, _, parent, _, start, end in spans:
        covered[parent] += end - start
    out: dict[str, list[int]] = defaultdict(list)
    for _, sid, _, name, start, end in spans:
        out[name].append(end - start - covered[sid])
    return out
