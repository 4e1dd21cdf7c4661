"""The runtime substrate: batch executor and metrics."""

import multiprocessing
import os
import threading
import time

import pytest

from repro.exceptions import StageFailure
from repro.runtime import BatchExecutor, MetricsRegistry
from repro.runtime.metrics import PERCENTILE_WINDOW


def _square(x):
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise ValueError("three is right out")
    return x


# Set by the executor's initializer in whichever process runs the batch.
_WORKER_STATE: dict = {}


def _set_tag(tag):
    _WORKER_STATE["tag"] = tag


def _tagged(x):
    return _WORKER_STATE["tag"], x


class TestBatchExecutor:
    @pytest.mark.parametrize("workers", [1, 2], ids=["1-serial", "2-process"])
    def test_results_ordered_by_input(self, workers):
        executor = BatchExecutor(workers=workers)
        outcomes = executor.map(_square, range(20))
        assert [o.index for o in outcomes] == list(range(20))
        assert [o.value for o in outcomes] == [i * i for i in range(20)]
        assert all(o.ok for o in outcomes)

    def test_fault_isolation(self):
        for workers in (1, 2):
            outcomes = BatchExecutor(workers=workers).map(
                _fail_on_three, [1, 2, 3, 4]
            )
            assert [o.ok for o in outcomes] == [True, True, False, True]
            failed = outcomes[2]
            assert isinstance(failed.error, ValueError)
            assert failed.value is None
            assert [o.value for o in outcomes if o.ok] == [1, 2, 4]

    def test_initializer_runs_inline_and_in_each_worker(self):
        for workers in (1, 2):
            _WORKER_STATE.clear()
            executor = BatchExecutor(
                workers=workers, initializer=_set_tag, initargs=(workers,)
            )
            outcomes = executor.map(_tagged, [1, 2, 3])
            assert [o.value for o in outcomes] == [
                (workers, 1),
                (workers, 2),
                (workers, 3),
            ]

    def test_empty_batch(self):
        assert BatchExecutor(workers=4).map(_square, []) == []


class TestMetricsRegistry:
    def test_counters(self):
        metrics = MetricsRegistry()
        assert metrics.counter("a") == 0
        metrics.increment("a")
        metrics.increment("a", 4)
        assert metrics.counter("a") == 5

    def test_timer_percentiles(self):
        metrics = MetricsRegistry()
        for ms in range(1, 101):  # 1..100
            metrics.record("lat", ms / 1000.0)
        stats = metrics.timer_stats("lat")
        assert stats.count == 100
        assert stats.minimum == pytest.approx(0.001)
        assert stats.maximum == pytest.approx(0.100)
        assert stats.percentiles[50.0] == pytest.approx(0.0505, abs=1e-4)
        assert stats.percentiles[99.0] == pytest.approx(0.09901, abs=1e-4)

    def test_percentiles_cover_the_recent_window_only(self):
        metrics = MetricsRegistry()
        n = 3 * PERCENTILE_WINDOW
        for i in range(n):  # 0, 1, 2, ... seconds, oldest first
            metrics.record("lat", float(i))
        stats = metrics.timer_stats("lat")
        # Exact over every observation ever recorded.
        assert stats.count == n
        assert stats.total == pytest.approx(n * (n - 1) / 2)
        assert stats.minimum == 0.0
        assert stats.maximum == float(n - 1)
        # Storage is bounded by the window, not by the process's age.
        assert len(metrics._timers["lat"].recent) == PERCENTILE_WINDOW
        # Percentiles describe the newest PERCENTILE_WINDOW values.
        oldest_kept = n - PERCENTILE_WINDOW
        assert stats.percentiles[50.0] == pytest.approx(
            oldest_kept + (PERCENTILE_WINDOW - 1) / 2
        )
        assert stats.percentiles[99.0] > stats.percentiles[50.0] > oldest_kept

    def test_time_context_manager(self):
        metrics = MetricsRegistry()
        with metrics.time("block"):
            time.sleep(0.01)
        stats = metrics.timer_stats("block")
        assert stats.count == 1
        assert stats.total >= 0.01

    def test_snapshot_shape(self):
        metrics = MetricsRegistry()
        metrics.increment("requests", 3)
        metrics.record("latency", 0.25)
        snap = metrics.snapshot()
        assert snap["counters"] == {"requests": 3}
        timer = snap["timers"]["latency"]
        assert timer["count"] == 1
        assert {"p50", "p90", "p99", "mean", "max"} <= set(timer)

    def test_thread_safety(self):
        metrics = MetricsRegistry()

        def hammer():
            for _ in range(1000):
                metrics.increment("hits")
                metrics.record("t", 0.001)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert metrics.counter("hits") == 4000
        assert metrics.timer_stats("t").count == 4000

    def test_reset(self):
        metrics = MetricsRegistry()
        metrics.increment("x")
        metrics.record("y", 1.0)
        metrics.reset()
        assert metrics.snapshot() == {"counters": {}, "timers": {}}


class TestStageFailure:
    def test_pickle_round_trip(self):
        import pickle

        failure = StageFailure("parse", "ParseError", "bad content", 3)
        clone = pickle.loads(pickle.dumps(failure))
        assert isinstance(clone, StageFailure)
        assert (clone.stage, clone.error_type, clone.message, clone.attempts) == (
            "parse",
            "ParseError",
            "bad content",
            3,
        )


def _pid(_item):
    return os.getpid()


def _count_start(counter):
    with counter.get_lock():
        counter.value += 1


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the pool runs only where fork exists",
)


class TestExecutorStartMethod:
    def test_fork_avoided_while_threads_are_live(self):
        # Forking with a live thread risks deadlocking the child on
        # locks the thread holds: the batch runs inline instead.
        stop = threading.Event()
        idle = threading.Thread(target=stop.wait)
        idle.start()
        try:
            outcomes = BatchExecutor(workers=2).map(_pid, range(4))
        finally:
            stop.set()
            idle.join(timeout=10)
        assert not idle.is_alive()
        assert [o.value for o in outcomes] == [os.getpid()] * 4

    def test_process_map_works_with_live_threads(self):
        stop = threading.Event()
        worker = threading.Thread(target=stop.wait)
        worker.start()
        try:
            executor = BatchExecutor(workers=2)
            outcomes = executor.map(_square, [2, 3])
            assert [o.value for o in outcomes] == [4, 9]
        finally:
            stop.set()
            worker.join()

    @needs_fork
    def test_pool_runs_outside_the_caller_without_threads(self):
        assert threading.active_count() == 1
        outcomes = BatchExecutor(workers=2).map(_pid, range(4))
        assert all(o.ok for o in outcomes)
        assert os.getpid() not in {o.value for o in outcomes}

    def test_single_item_batch_runs_inline(self):
        outcomes = BatchExecutor(workers=4).map(_pid, [0])
        assert [o.value for o in outcomes] == [os.getpid()]

    @needs_fork
    def test_pool_never_larger_than_batch(self):
        # Every pool process runs the initializer once, used or not.
        started = multiprocessing.get_context("fork").Value("i", 0)
        executor = BatchExecutor(
            workers=8, initializer=_count_start, initargs=(started,)
        )
        pids = {o.value for o in executor.map(_pid, [0, 1])}
        assert os.getpid() not in pids
        assert len(pids) <= 2
        assert started.value <= 2
