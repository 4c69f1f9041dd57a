"""In-memory spans, counters, output checks and sample statistics.

Spans are recorded only around calls the benchmark itself makes into
durasv; nothing inside the package is instrumented. A root span marks
one round of setups or of pipeline passes, and counters belong to the
root that is open when they are bumped.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    root: int = -1

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Trace:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        root = self.spans[parent].root if parent >= 0 else index
        record = Span(name, 0.0, parent=parent, root=root)
        self.spans.append(record)
        self._open.append(index)
        record.start = perf_counter()
        try:
            yield record
        finally:
            record.end = perf_counter()
            self._open.pop()

    def count(self, name: str, n: float = 1) -> None:
        if self._open:
            self.counters[self.spans[self._open[0]].root][name] += n

    def roots(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s.parent == -1 and s.name == name]

    def total(self, root: int, name: str) -> float:
        """Seconds spent in spans called ``name`` under one root."""
        return sum(s.seconds for s in self.spans if s.root == root and s.name == name)

    def children(self, parent: int) -> list[Span]:
        return [s for s in self.spans if s.parent == parent]


class Checks:
    """Named output checks, with how many operations each failure cost."""

    def __init__(self) -> None:
        self.results: dict[str, dict] = {}
        self.failed_operations = 0

    def record(self, name: str, ok, detail: str = "", failed_ops: int = 1) -> None:
        entry = self.results.setdefault(name, {"runs": 0, "failures": 0, "detail": ""})
        entry["runs"] += 1
        if not ok:
            entry["failures"] += 1
            entry["detail"] = detail
            self.failed_operations += max(1, failed_ops)

    @property
    def passed(self) -> bool:
        return all(r["failures"] == 0 for r in self.results.values())


def summary(samples: list[float]) -> dict:
    """Median, quartiles, relative spread and tail of a list of samples.

    The tail is the highest percentile with at least ten samples above
    it; with ten samples or fewer it is the maximum.
    """
    ordered = sorted(samples)
    n = len(ordered)
    median = statistics.median(ordered)
    q1, _, q3 = statistics.quantiles(ordered, n=4) if n > 1 else (median,) * 3
    if n > 10:
        tail, tail_pct = ordered[n - 11], math.floor(100 * (n - 10) / n)
    else:
        tail, tail_pct = ordered[-1], 100
    return {
        "n": n,
        "median": median,
        "p25": q1,
        "p75": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "tail": tail,
        "tail_pct": tail_pct,
    }
