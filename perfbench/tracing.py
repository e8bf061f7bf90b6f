"""Spans recorded from the benchmark's side of each call into fxcast.

Spans stay in memory and are written out as one JSON file when the run
ends. ``time.perf_counter`` reads CLOCK_MONOTONIC on Linux, which every
process shares, so spans reported by a child interpreter line up with the
parent's.
"""

from __future__ import annotations

import json
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

import fxcast.experiment


def cpu_times() -> tuple:
    """(CPU seconds of this process, of its waited-for children)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, children.ru_utime + children.ru_stime


class Tracer:
    """Spans with name, start, end, parent span and trace identifier."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.trace = "setup"

    def add(self, name, start, end, parent=None, **attrs) -> dict:
        span = {"id": len(self.spans) + 1, "parent": parent, "trace": self.trace,
                "name": name, "start": start, "end": end, **attrs}
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name, **attrs):
        parent = self._open[-1]["id"] if self._open else None
        span = self.add(name, time.perf_counter(), None, parent, **attrs)
        self._open.append(span)
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()

    def write(self, path, summary: dict):
        """Write every span plus each span's self time (its duration minus
        the part its children cover) and a summary."""
        covered = {}
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] = covered.get(s["parent"], 0.0) + s["end"] - s["start"]
        for s in self.spans:
            s["self_s"] = s["end"] - s["start"] - covered.get(s["id"], 0.0)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"summary": summary, "spans": self.spans}, handle, indent=1)
            handle.write("\n")


@dataclass
class GridCall:
    workers: int
    wall_s: float
    parent_cpu_s: float
    worker_cpu_s: float
    busy_s: float  # sum of per-cell train_seconds
    tail_s: float  # first worker idle for good -> last cell


class GridProbe:
    """Stands in for ``run_grid``: records a span per call and per cell, and
    the parent's and the workers' CPU time. Cells complete in the parent's
    progress callback; a cell's span ends there and starts ``train_seconds``
    earlier."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.calls = []

    def __call__(self, train, test, grid, workers=1, sink=None, progress=None):
        done = []

        def note(count, total, item):
            done.append((time.perf_counter(), item))
            if progress is not None:
                progress(count, total, item)

        own0, children0 = cpu_times()
        with self.tracer.span("experiment.run_grid", workers=workers) as span:
            report = fxcast.experiment.run_grid(
                train, test, grid, workers=workers, sink=sink, progress=note
            )
        own1, children1 = cpu_times()
        for end, item in done:
            seconds = getattr(item, "train_seconds", 0.0)
            self.tracer.add("experiment.cell", end - seconds, end, span["id"], p=item.p, h=item.h)
        last_busy = done[max(len(done) - workers, 0)][0]
        self.calls.append(GridCall(
            workers=workers,
            wall_s=span["end"] - span["start"],
            parent_cpu_s=own1 - own0,
            worker_cpu_s=children1 - children0,
            busy_s=sum(c.train_seconds for c in report.cells),
            tail_s=done[-1][0] - last_busy,
        ))
        return report


@contextmanager
def patched(module, name, replacement):
    """Replace ``module.name`` for the duration of the block."""
    original = getattr(module, name)
    setattr(module, name, replacement)
    try:
        yield
    finally:
        setattr(module, name, original)


def traced(tracer: Tracer, name: str, fn):
    """``fn`` wrapped in a span."""
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    return wrapper


def timed(tracer: Tracer, name: str, fn, min_reps=3, min_seconds=0.2, **attrs):
    """Median seconds of repeated spans around ``fn()``, and its last result."""
    durations = []
    started = time.perf_counter()
    while len(durations) < min_reps or time.perf_counter() - started < min_seconds:
        with tracer.span(name, **attrs) as span:
            result = fn()
        durations.append(span["end"] - span["start"])
    return statistics.median(durations), result
