"""Batch execution with ordered results and per-item fault isolation.

The executor maps a function over a batch of items inline or on a
``fork`` process pool, and always returns one :class:`TaskOutcome` per
input item **in input order** — results are deterministic regardless of
completion order, which is what lets the pipeline produce byte-identical
indexes serial vs parallel.

The pool is ``fork``-only, so per-worker state is inherited, never
pickled, and runs only while no other thread is alive (a forked child
can deadlock on a lock a live thread held) and the batch has more than
one item for more than one worker; anything else runs inline.

A failing item never takes down the batch: its exception is captured in
its outcome and every other item still completes.  Retrying a transient
failure is the mapped function's business (ingest bounds its Grobid
retries inside ``pipeline._parse_extract``).

Per-worker state goes through ``initializer``/``initargs``, which run
once per worker (and once inline when the batch runs inline, so one
code path serves both); ``fn``'s items and return values must pickle.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Iterable


@dataclass(frozen=True, slots=True)
class TaskOutcome:
    """The result envelope for one batch item.

    Attributes:
        index: position of the item in the input batch.
        value: the function's return value (None on failure).
        error: the captured exception (None on success).
        duration: seconds the execution took.
    """

    index: int
    value: Any
    error: BaseException | None
    duration: float

    @property
    def ok(self) -> bool:
        return self.error is None


def _run_one(fn: Callable[[Any], Any], item: Any, index: int) -> TaskOutcome:
    """Execute one item; never raises."""
    start = time.perf_counter()
    try:
        value = fn(item)
    except BaseException as exc:  # isolation: captured, not raised
        return TaskOutcome(index, None, exc, time.perf_counter() - start)
    return TaskOutcome(index, value, None, time.perf_counter() - start)


class BatchExecutor:
    """Maps a function over batches, inline or on a fork process pool.

    Args:
        workers: the most pool processes a batch may use; the pool never
            has more processes than items, and ``<= 1`` runs inline.
        initializer / initargs: per-worker setup hook (invoked once,
            inline, when the batch runs inline).
    """

    def __init__(
        self,
        workers: int = 1,
        initializer: Callable[..., None] | None = None,
        initargs: tuple = (),
    ):
        self.workers = max(1, int(workers))
        self.initializer = initializer
        self.initargs = tuple(initargs)

    # -- execution ---------------------------------------------------------

    def map(
        self, fn: Callable[[Any], Any], items: Iterable[Any]
    ) -> list[TaskOutcome]:
        """Run ``fn`` over ``items``; outcomes come back in input order."""
        batch = list(items)
        if not batch:
            return []
        processes = min(self.workers, len(batch))
        if (
            processes <= 1
            or "fork" not in multiprocessing.get_all_start_methods()
            or threading.active_count() > 1
        ):
            if self.initializer is not None:
                self.initializer(*self.initargs)
            return [_run_one(fn, item, i) for i, item in enumerate(batch)]
        with ProcessPoolExecutor(
            max_workers=processes,
            mp_context=multiprocessing.get_context("fork"),
            initializer=self.initializer,
            initargs=self.initargs,
        ) as pool:
            futures = [
                pool.submit(_run_one, fn, item, i)
                for i, item in enumerate(batch)
            ]
            return [future.result() for future in futures]
