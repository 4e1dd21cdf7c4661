"""The durability manager: WAL + snapshots over ``Durable`` stores.

Commit protocol (write-behind logging with ack-after-fsync):

1. Callers mutate attached stores through their normal APIs; each
   store journals the logical operation it performed.
2. :meth:`DurabilityManager.commit` drains every journal into **one**
   WAL record — a report's docstore insert and its review enrollment
   travel together, which is what makes ingest atomic across the two
   record stores.  The graph and keyword index are not attached: the
   pipeline derives them from those records, live and after recovery.
3. The record buffers until the group-commit quota fills (or
   :meth:`flush` is called); then one append + one fsync makes the
   whole batch durable and advances ``durable_lsn``.  A commit is
   *acknowledged* only once its LSN is ≤ ``durable_lsn``.

Recovery: load the newest snapshot (if any) into the freshly attached
stores, then replay WAL records with ``lsn`` beyond the snapshot,
truncating any torn tail.  A failed flush poisons the manager —
after an fsync error the log's tail state is unknowable, so further
commits must not be acknowledged (the fsyncgate lesson).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, runtime_checkable

from repro.durability.snapshot import load_snapshot, write_snapshot
from repro.durability.wal import WAL_NAME, WriteAheadLog
from repro.exceptions import DurabilityError
from repro.runtime.metrics import MetricsRegistry


@runtime_checkable
class Durable(Protocol):
    """What a store must provide to ride the WAL.

    ``journal`` is a list the store appends one JSON-shaped op dict to
    per logical mutation (or ``None`` when durability is off); the
    three methods replay ops and move whole states.
    """

    journal: list | None

    def durable_apply(self, op: dict) -> None: ...

    def durable_snapshot(self) -> dict: ...

    def durable_restore(self, state: dict) -> None: ...


@dataclass
class RecoveryReport:
    """What one recovery pass did."""

    snapshot_loaded: bool = False
    snapshot_lsn: int = 0
    records_replayed: int = 0
    ops_applied: int = 0
    torn_tail: bool = False
    torn_reason: str = ""
    durable_lsn: int = 0


class DurabilityManager:
    """Coordinates one WAL + snapshot pair across named stores.

    Args:
        fs: durability filesystem (``OsFileSystem`` for real
            directories, ``MemFS``/``FaultInjector`` in tests).
        group_commit: commits per fsync (1 = sync every commit).
        snapshot_every: auto-snapshot after this many commits
            (``None`` disables; explicit :meth:`snapshot` always works).
        metrics: registry for counters and commit-latency percentiles
            (a private one is created when omitted).
    """

    def __init__(
        self,
        fs,
        group_commit: int = 1,
        snapshot_every: int | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        if group_commit < 1:
            raise DurabilityError("group_commit must be >= 1")
        self.fs = fs
        self.group_commit = group_commit
        self.snapshot_every = snapshot_every
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.wal = WriteAheadLog(fs)
        self._stores: dict[str, Durable] = {}
        self.next_lsn = 1
        self.durable_lsn = 0
        self.snapshot_lsn = 0
        self._pending_lsns: list[int] = []
        self._commits_since_snapshot = 0
        self._failed = False
        self.last_recovery: RecoveryReport | None = None

    # -- wiring ------------------------------------------------------------

    def attach(self, name: str, store: Durable) -> None:
        """Register a store and switch its journal on.

        Attach order fixes the per-record replay order; stores must be
        independent of each other (ours are).
        """
        if name in self._stores:
            raise DurabilityError(f"store {name!r} already attached")
        self._stores[name] = store
        store.journal = []

    # -- commit path -------------------------------------------------------

    def commit(self) -> int | None:
        """Seal every journaled op since the last commit into one WAL
        record.

        Returns the record's LSN, or ``None`` when nothing changed.
        The LSN is acknowledged (durable) only once it is ≤
        :attr:`durable_lsn` — immediately with ``group_commit=1``,
        after the group's fsync otherwise.
        """
        self._check_usable()
        ops: dict[str, list] = {}
        for name, store in self._stores.items():
            journal = store.journal
            if journal:
                ops[name] = list(journal)
                journal.clear()
        if not ops:
            return None
        lsn = self.next_lsn
        self.next_lsn += 1
        with self.metrics.time("durability.commit_seconds"):
            self.wal.append({"lsn": lsn, "ops": ops})
            self._pending_lsns.append(lsn)
            self.metrics.increment("durability.commits")
            self.metrics.increment(
                "durability.ops", sum(len(v) for v in ops.values())
            )
            if len(self._pending_lsns) >= self.group_commit:
                self.flush()
        self._commits_since_snapshot += 1
        if (
            self.snapshot_every is not None
            and self._commits_since_snapshot >= self.snapshot_every
        ):
            self.snapshot()
        return lsn

    def flush(self) -> int:
        """Fsync buffered records; returns the new ``durable_lsn``.

        Raises:
            DurabilityError: the disk write failed.  The manager is
                poisoned: unflushed commits were never acknowledged and
                no further commits are accepted.
        """
        self._check_usable()
        if not self._pending_lsns:
            return self.durable_lsn
        try:
            self.wal.flush()
        except DurabilityError:
            self._failed = True
            raise
        self.durable_lsn = self._pending_lsns[-1]
        self._pending_lsns.clear()
        self.metrics.increment("durability.fsyncs")
        return self.durable_lsn

    def snapshot(self) -> int:
        """Write a full-state snapshot and reset the WAL.

        Returns the snapshot's LSN.  Any journaled-but-uncommitted ops
        are committed first so the snapshot sits exactly on a commit
        boundary.
        """
        self._check_usable()
        self.commit()
        self.flush()
        states = {
            name: store.durable_snapshot()
            for name, store in self._stores.items()
        }
        with self.metrics.time("durability.snapshot_seconds"):
            size = write_snapshot(self.fs, self.durable_lsn, states)
            self.wal.reset()
        self.snapshot_lsn = self.durable_lsn
        self._commits_since_snapshot = 0
        self.metrics.increment("durability.snapshots_written")
        self.metrics.increment("durability.snapshot_bytes", size)
        return self.snapshot_lsn

    # -- recovery ----------------------------------------------------------

    def recover(self) -> RecoveryReport:
        """Rebuild the attached (empty) stores from disk.

        Load the snapshot when present, replay the WAL suffix, truncate
        a torn tail, and position LSNs for new commits.
        """
        report = RecoveryReport()
        snapshot = load_snapshot(self.fs)
        start_lsn = 0
        if snapshot is not None:
            start_lsn = int(snapshot.get("lsn", 0))
            for name, store in self._stores.items():
                state = snapshot["stores"].get(name)
                if state is not None:
                    self._quiet_restore(store, state)
            report.snapshot_loaded = True
            report.snapshot_lsn = start_lsn
            self.metrics.increment("durability.snapshots_loaded")
        replayed = self.wal.replay(truncate_torn=True)
        if replayed.torn:
            report.torn_tail = True
            report.torn_reason = replayed.torn_reason
            self.metrics.increment("durability.torn_tails_truncated")
        last_lsn = start_lsn
        for record in replayed.records:
            lsn = int(record.get("lsn", 0))
            if lsn <= start_lsn:
                continue
            for name, ops in record.get("ops", {}).items():
                store = self._stores.get(name)
                if store is None:
                    raise DurabilityError(
                        f"WAL record {lsn} references unattached store "
                        f"{name!r}"
                    )
                for op in ops:
                    self._quiet_apply(store, op)
                    report.ops_applied += 1
            report.records_replayed += 1
            last_lsn = max(last_lsn, lsn)
        self.next_lsn = last_lsn + 1
        self.durable_lsn = last_lsn
        self.snapshot_lsn = start_lsn
        report.durable_lsn = last_lsn
        self.metrics.increment(
            "durability.records_replayed", report.records_replayed
        )
        self.metrics.increment("durability.recoveries")
        self.last_recovery = report
        return report

    # -- observability -----------------------------------------------------

    def stats(self) -> dict:
        """WAL/recovery health for ``/stats``."""
        out = {
            "durable_lsn": self.durable_lsn,
            "next_lsn": self.next_lsn,
            "snapshot_lsn": self.snapshot_lsn,
            "pending_commits": len(self._pending_lsns),
            "group_commit": self.group_commit,
            "failed": self._failed,
            "wal_bytes_written": self.wal.bytes_written,
            "counters": {
                name: self.metrics.counter(f"durability.{name}")
                for name in (
                    "commits",
                    "ops",
                    "fsyncs",
                    "snapshots_written",
                    "snapshots_loaded",
                    "records_replayed",
                    "torn_tails_truncated",
                    "recoveries",
                )
            },
        }
        timer = self.metrics.timer_stats("durability.commit_seconds")
        if timer is not None:
            out["commit_latency"] = timer.as_dict()
        return out

    # -- internals ---------------------------------------------------------

    def _check_usable(self) -> None:
        if self._failed:
            raise DurabilityError(
                "durability manager is poisoned after a failed flush on "
                f"{self._wal_location()} (last durable LSN "
                f"{self.durable_lsn}); recover from disk before "
                "committing again"
            )

    def _wal_location(self) -> str:
        """Operator-facing WAL path: directory-qualified when the
        filesystem has a real root, bare log name otherwise."""
        root = getattr(self.fs, "root", None)
        if root is not None:
            return str(Path(root) / WAL_NAME)
        return WAL_NAME

    @staticmethod
    def _quiet_apply(store: Durable, op: dict) -> None:
        journal, store.journal = store.journal, None
        try:
            store.durable_apply(op)
        finally:
            store.journal = journal

    @staticmethod
    def _quiet_restore(store: Durable, state: dict) -> None:
        journal, store.journal = store.journal, None
        try:
            store.durable_restore(state)
        finally:
            store.journal = journal
