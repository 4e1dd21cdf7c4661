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
from concurrent.futures import TimeoutError as _FuturesTimeout
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
        persistent: keep the worker pool alive across ``map`` calls
            instead of opening one per batch.  Long-lived serving tiers
            set this so process workers keep their warm per-process
            state (mmap'd segments, caches); call :meth:`close` (or use
            the executor as a context manager) when done.
    """

    def __init__(
        self,
        workers: int = 1,
        mode: str = "thread",
        initializer: Callable[..., None] | None = None,
        initargs: tuple = (),
        persistent: bool = False,
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
        self.persistent = bool(persistent)
        self._live_pool: Executor | None = None

    # -- execution ---------------------------------------------------------

    def map(
        self,
        fn: Callable[[Any], Any],
        items: Iterable[Any],
        timeout: float | None = None,
    ) -> list[TaskOutcome]:
        """Run ``fn`` over ``items``; outcomes come back in input order.

        ``timeout`` is a deadline in seconds for the *whole batch*: an
        item whose result is not available when the deadline passes
        gets a ``TimeoutError`` outcome instead of blocking the caller
        forever (a hung or killed pool worker otherwise wedges the
        parent).  The worker may still be running — callers that need
        the slot back must :meth:`recycle` the pool.  Serial mode runs
        inline and cannot be interrupted, so the deadline is ignored.
        """
        batch = list(items)
        if not batch:
            return []
        if self.mode == "serial":
            if self.initializer is not None:
                self.initializer(*self.initargs)
            return [_run_one(fn, item, i) for i, item in enumerate(batch)]
        if self.persistent:
            return self._submit_batch(
                self._persistent_pool(), fn, batch, timeout
            )
        pool = self._pool()
        try:
            return self._submit_batch(pool, fn, batch, timeout)
        finally:
            if timeout is None:
                pool.shutdown(wait=True)
            else:
                # A deadlined batch must not wait out a hung worker at
                # shutdown either — abandon it and return.
                pool.shutdown(wait=False, cancel_futures=True)

    def _submit_batch(
        self,
        pool: Executor,
        fn: Callable[[Any], Any],
        batch: list,
        timeout: float | None = None,
    ) -> list[TaskOutcome]:
        futures = [
            pool.submit(_run_one, fn, item, i)
            for i, item in enumerate(batch)
        ]
        if timeout is None:
            return [future.result() for future in futures]
        deadline = time.perf_counter() + timeout
        outcomes: list[TaskOutcome] = []
        for index, future in enumerate(futures):
            remaining = deadline - time.perf_counter()
            try:
                outcomes.append(future.result(timeout=max(0.0, remaining)))
            except (_FuturesTimeout, TimeoutError):
                future.cancel()
                outcomes.append(
                    TaskOutcome(
                        index,
                        None,
                        TimeoutError(
                            f"batch item {index} missed the {timeout:.3f}s "
                            "deadline"
                        ),
                        timeout,
                    )
                )
        return outcomes

    def _persistent_pool(self) -> Executor:
        if self._live_pool is None:
            self._live_pool = self._pool()
        return self._live_pool

    def close(self) -> None:
        """Shut down a persistent pool (no-op otherwise)."""
        if self._live_pool is not None:
            self._live_pool.shutdown(wait=True)
            self._live_pool = None

    def recycle(self) -> None:
        """Tear down a persistent pool without waiting on its workers.

        After a deadline miss the stuck worker still occupies its pool
        slot (and for process pools may be hung in unkillable C code);
        recycling terminates process workers outright and abandons the
        pool, so the next :meth:`map` starts against fresh workers.
        """
        pool = self._live_pool
        self._live_pool = None
        if pool is None:
            return
        processes = getattr(pool, "_processes", None)
        if processes:
            for process in list(processes.values()):
                process.terminate()
        pool.shutdown(wait=False, cancel_futures=True)

    def __enter__(self) -> "BatchExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

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
