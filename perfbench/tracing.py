"""Benchmark-side tracing: spans around the calls a workload makes into
the library, and the per-layer figures derived from them.

Nothing here reaches inside ``repro``.  Three kinds of span are taken:

- driver spans, timed with ``Tracer.span`` around each public call;
- kernel spans, taken inside the Spark Python workers by the ``CleanFn``
  wrapper of ``Tracer.wrap``.  They stay in worker memory and travel back
  to the driver with each finished task as a Spark accumulator update;
  Python workers are reused until the session stops and are then killed
  without running exit hooks, so per-worker files written "when the
  worker finishes" would never be written;
- Structured Streaming progress events, read by ``ProgressLog``.
"""
from __future__ import annotations

import os
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

from pyspark import AccumulatorParam
from pyspark.sql.streaming import StreamingQueryListener


class _SpanList(AccumulatorParam):
    """Accumulator of kernel spans ``(pid, start, end, rows)``."""

    def zero(self, value):
        return []

    def addInPlace(self, a, b):
        a.extend(b)
        return a


class Tracer:
    """Spans and counters of one traced repetition of a workload."""

    def __init__(self, sc):
        self._kernel = sc.accumulator([], _SpanList())
        self.metrics: dict[str, float] = defaultdict(float)

    @contextmanager
    def span(self, name: str):
        """Add the wall time of the block to ``metrics[name]``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.metrics[name] += time.perf_counter() - start

    def wrap(self, clean_fn):
        """A ``CleanFn`` that records one kernel span per group it cleans.

        Span times are wall-clock (``time.time``), so they compare with the
        driver's; all processes run on one host.
        """
        acc = self._kernel

        def traced(t, X):
            start = time.time()
            out = clean_fn(t, X)
            acc.add([(os.getpid(), start, time.time(), len(t))])
            return out

        return traced

    def apply_layer(self, start: float, end: float, rows_out: int) -> None:
        """Split one ``toPandas`` call over an ``applyInPandas`` plan.

        ``start``/``end`` are the wall-clock bounds of the call.  The apply
        layer runs until the last kernel span ends; what follows is the
        collect layer (Arrow batches to a pandas frame in the driver).
        """
        spans: list[tuple[int, float, float, int]] = self._kernel.value
        m = self.metrics
        durations = [b - a for _, a, b, _ in spans]
        per_worker: dict[int, float] = defaultdict(float)
        for pid, a, b, _ in spans:
            per_worker[pid] += b - a
        last = max(b for _, _, b, _ in spans)
        apply_s = last - start
        busiest = max(per_worker.values())
        rows_in = sum(r for *_, r in spans)
        m["kernel.busy_s"] += sum(durations)
        m["kernel.calls"] += len(spans)
        m["kernel.points"] += rows_in
        m["kernel.skew"] = max(durations) / statistics.median(durations)
        m["apply.s"] += apply_s
        m["apply.overhead_s"] += apply_s - busiest
        m["apply.kernel_share"] = busiest / apply_s
        m["apply.groups"] += len(spans)
        m["apply.rows_in"] += rows_in
        m["apply.rows_out"] += rows_out
        m["apply.warmup_rows"] += rows_in - rows_out
        m["apply.useful_ratio"] = m["apply.rows_out"] / m["apply.rows_in"]
        m["collect.s"] += end - last
        m["collect.rows"] += rows_out


@contextmanager
def patched(cls, name: str, make):
    """Replace method ``cls.name`` by ``make(original)`` inside the block."""
    original = cls.__dict__[name]
    setattr(cls, name, make(original))
    try:
        yield
    finally:
        setattr(cls, name, original)


class ProgressLog(StreamingQueryListener):
    """Keeps the progress events of micro-batches that read input rows."""

    def __init__(self):
        self._lock = threading.Lock()
        self._events: list[tuple[dict, int]] = []

    def onQueryStarted(self, event):
        pass

    def onQueryProgress(self, event):
        p = event.progress
        if p.numInputRows:
            with self._lock:
                self._events.append((dict(p.durationMs), int(p.numInputRows)))

    def onQueryIdle(self, event):
        pass

    def onQueryTerminated(self, event):
        pass

    def take(self, expected: int, timeout_s: float = 30.0) -> list[tuple[dict, int]]:
        """Wait until ``expected`` events arrived, then return and clear them.

        Progress events reach the listener asynchronously, so some may land
        after the query has already stopped.
        """
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            with self._lock:
                if len(self._events) >= expected:
                    break
            time.sleep(0.05)
        with self._lock:
            events, self._events = self._events, []
        return events
