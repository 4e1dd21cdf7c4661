"""Batch execution with ordered results and per-item fault isolation.

The executor maps a function over a batch of items on a thread pool, a
process pool, or inline (``workers <= 1``), and always returns one
:class:`TaskOutcome` per input item **in input order** — results are
deterministic regardless of completion order, which is what lets the
pipeline produce byte-identical indexes serial vs parallel.

A failing item never takes down the batch: its exception is captured in
its outcome and every other item still completes.  Retrying a transient
failure is the mapped function's business (ingest bounds its Grobid
retries inside ``pipeline._parse_extract``).

Process mode requires ``fn`` (and the items and return values) to be
picklable; per-worker state that is expensive to ship — a trained
model, a parser — goes through ``initializer``/``initargs``, which run
once per worker (and once inline for serial/thread mode, so one code
path serves all three).
"""

from __future__ import annotations

import time
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.exceptions import ReproError

_MODES = ("serial", "thread", "process")


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
    """Maps a function over batches with a configurable worker pool.

    Args:
        workers: pool size; ``<= 1`` runs inline (serial).
        mode: ``"thread"`` (default), ``"process"``, or ``"serial"``.
            Serial is forced when ``workers <= 1``.
        initializer / initargs: per-worker setup hook (also invoked
            once, inline, for serial and thread mode).
    """

    def __init__(
        self,
        workers: int = 1,
        mode: str = "thread",
        initializer: Callable[..., None] | None = None,
        initargs: tuple = (),
    ):
        if mode not in _MODES:
            raise ReproError(
                f"unknown executor mode {mode!r}; expected one of {_MODES}"
            )
        if workers <= 1:
            mode = "serial"
        self.workers = max(1, int(workers))
        self.mode = mode
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
        if self.mode == "serial":
            if self.initializer is not None:
                self.initializer(*self.initargs)
            return [_run_one(fn, item, i) for i, item in enumerate(batch)]
        with self._pool() as pool:
            futures = [
                pool.submit(_run_one, fn, item, i)
                for i, item in enumerate(batch)
            ]
            return [future.result() for future in futures]

    @staticmethod
    def _mp_context():
        """The safest available multiprocessing start method.

        ``fork`` inherits heavyweight initargs (trained models) without
        pickling them through the call pipe — but forking a process with
        live threads can deadlock the child on locks the forked thread
        held (and is a DeprecationWarning on Python 3.12+), so when any
        extra thread is running we fall back to ``forkserver`` and then
        ``spawn``.
        """
        import multiprocessing
        import threading

        available = multiprocessing.get_all_start_methods()
        if threading.active_count() > 1:
            preferred = ("forkserver", "spawn")
        else:
            preferred = ("fork", "forkserver", "spawn")
        for method in preferred:
            if method in available:
                return multiprocessing.get_context(method)
        return None

    def _pool(self) -> Executor:
        if self.mode == "thread":
            # Thread workers share the process; run the initializer once
            # inline instead of once per thread.
            if self.initializer is not None:
                self.initializer(*self.initargs)
            return ThreadPoolExecutor(max_workers=self.workers)
        return ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=self._mp_context(),
            initializer=self.initializer,
            initargs=self.initargs,
        )
