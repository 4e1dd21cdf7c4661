"""Execution runtime: batch executor and metrics.

The production-scale substrate under the ingestion pipeline
(``repro.pipeline``): a fault-isolating batch executor with ordered,
deterministic results, and a registry of counters and latency timers
with percentile summaries — the one record of stage time, served by
``/stats``.
"""

from repro.runtime.executor import BatchExecutor, TaskOutcome
from repro.runtime.metrics import MetricsRegistry, TimerStats

__all__ = [
    "BatchExecutor",
    "TaskOutcome",
    "MetricsRegistry",
    "TimerStats",
]
