"""Call counting and span recording around the benchmark's calls into qwsearch.

Spans are recorded only from the benchmark side of each layer boundary:
one span per task and one per public call the task makes into a layer.
Calls a layer makes internally (for example `lowest_two` inside
`find_critical_gamma`) count toward the outer call's span.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

TASK = "task"


class Recorder:
    """Counts calls per layer always; records spans only when `traced`.

    A span is `[name, start, end, parent, task_id]`, where `parent` is the
    index of the enclosing span in `spans` or None.
    """

    def __init__(self, traced: bool):
        self.traced = traced
        self.spans: list[list] = []
        self.calls: Counter = Counter()
        self.failed: Counter = Counter()
        self._parent: int | None = None
        self._task: int | None = None

    @contextmanager
    def task(self, task_id: int):
        if not self.traced:
            yield
            return
        index = len(self.spans)
        self.spans.append([TASK, perf_counter(), None, None, task_id])
        self._parent, self._task = index, task_id
        try:
            yield
        finally:
            self.spans[index][2] = perf_counter()
            self._parent = self._task = None

    def call(self, name: str, fn, *args):
        self.calls[name] += 1
        start = perf_counter() if self.traced else 0.0
        try:
            return fn(*args)
        except Exception:
            self.failed[name] += 1
            raise
        finally:
            if self.traced:
                self.spans.append([name, start, perf_counter(), self._parent, self._task])


def busy_by_name(spans: list[list]) -> dict[str, list[float]]:
    """Durations of every span, grouped by span name."""
    out: dict[str, list[float]] = defaultdict(list)
    for name, start, end, _, _ in spans:
        out[name].append(end - start)
    return out


def self_time(spans: list[list]) -> float:
    """Total task-span time not covered by the task's direct child spans."""
    covered: Counter = Counter()
    for _, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    return sum(end - start - covered[i]
               for i, (name, start, end, _, _) in enumerate(spans) if name == TASK)


def p50_us(durations: list[float]) -> float:
    return statistics.median(durations) * 1e6 if durations else 0.0
