"""Stage-scoped metrics: counters and latency timers with percentiles.

A :class:`MetricsRegistry` is a thread-safe bag of named counters and
timers.  The pipeline owns one registry per system, every stage records
into it (``pipeline.parse_seconds``, ``engine.search_seconds``, ...),
and the API's ``/stats`` endpoint serves :meth:`MetricsRegistry.snapshot`
so operators can see throughput and tail latency without attaching a
profiler.

A timer's ``count``, ``total``, ``min`` and ``max`` are exact over the
life of the process; its percentiles are taken over the most recent
:data:`PERCENTILE_WINDOW` observations, so a long-running server holds
a bounded number of floats per timer and ``/stats`` sorts at most that
many.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass

_PERCENTILES = (50.0, 90.0, 99.0)
PERCENTILE_WINDOW = 4096


@dataclass(frozen=True, slots=True)
class TimerStats:
    """Summary of one timer's recorded durations (seconds)."""

    count: int
    total: float
    mean: float
    minimum: float
    maximum: float
    percentiles: dict[float, float]

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "total": round(self.total, 6),
            "mean": round(self.mean, 6),
            "min": round(self.minimum, 6),
            "max": round(self.maximum, 6),
            **{
                f"p{int(p)}": round(value, 6)
                for p, value in self.percentiles.items()
            },
        }


def _percentile(ordered: list[float], pct: float) -> float:
    """Nearest-rank-with-interpolation percentile of a sorted list."""
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    rank = (pct / 100.0) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    weight = rank - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


class _Timer:
    __slots__ = ("count", "total", "minimum", "maximum", "recent")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self.recent: deque[float] = deque(maxlen=PERCENTILE_WINDOW)

    def add(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        if seconds < self.minimum:
            self.minimum = seconds
        if seconds > self.maximum:
            self.maximum = seconds
        self.recent.append(seconds)


class MetricsRegistry:
    """Named counters + timers, safe to record from worker threads."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._timers: dict[str, _Timer] = {}

    # -- counters ----------------------------------------------------------

    def increment(self, name: str, amount: int = 1) -> int:
        """Add to a counter (created at zero) and return its new value."""
        with self._lock:
            value = self._counters.get(name, 0) + amount
            self._counters[name] = value
            return value

    def counter(self, name: str) -> int:
        """Current value of a counter (0 when never incremented)."""
        with self._lock:
            return self._counters.get(name, 0)

    # -- timers ------------------------------------------------------------

    def record(self, name: str, seconds: float) -> None:
        """Record one duration observation for a timer."""
        with self._lock:
            timer = self._timers.get(name)
            if timer is None:
                timer = self._timers[name] = _Timer()
            timer.add(float(seconds))

    @contextmanager
    def time(self, name: str):
        """Context manager recording the block's wall duration."""
        start = time.perf_counter()
        try:
            yield self
        finally:
            self.record(name, time.perf_counter() - start)

    def timer_stats(self, name: str) -> TimerStats | None:
        """Summary for a timer (None when never recorded): exact
        count/total/mean/min/max, percentiles of the recent window."""
        with self._lock:
            timer = self._timers.get(name)
            if timer is None:
                return None
            count, total = timer.count, timer.total
            minimum, maximum = timer.minimum, timer.maximum
            recent = list(timer.recent)
        recent.sort()
        return TimerStats(
            count=count,
            total=total,
            mean=total / count,
            minimum=minimum,
            maximum=maximum,
            percentiles={
                pct: _percentile(recent, pct) for pct in _PERCENTILES
            },
        )

    # -- export ------------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-shaped view of every counter and timer summary."""
        with self._lock:
            counter_names = sorted(self._counters)
            timer_names = sorted(self._timers)
        return {
            "counters": {
                name: self.counter(name) for name in counter_names
            },
            "timers": {
                name: stats.as_dict()
                for name in timer_names
                if (stats := self.timer_stats(name)) is not None
            },
        }

    def reset(self) -> None:
        """Drop every counter and timer (tests, between benchmark runs)."""
        with self._lock:
            self._counters.clear()
            self._timers.clear()
