"""Per-shard read replicas: WAL shipping, promotion, failover reads.

Each shard of the serving tier is a :class:`ShardReplicaSet` — one
**primary** store taking writes plus N **replicas** fed from the
primary's per-shard write-ahead log.  The machinery is the
``repro.durability`` stack end to end: the primary journals logical
ops through the :class:`~repro.durability.manager.Durable` protocol,
every mutation seals its journal into one checksummed WAL record
(append + fsync, ack-after-fsync), and replicas apply *acknowledged*
records in LSN order via ``durable_apply``.  Periodic snapshots
(``snapshot_every``) bound WAL replay: a replica that has fallen
behind a snapshot bootstraps from the snapshot file, then replays the
WAL suffix — the same recovery path a crashed process uses.

**Read consistency.**  A replica is eligible to serve a read only
while it is *fully caught up* (``applied_lsn == durable_lsn``); a
lagging replica is skipped and the primary serves.  Combined with the
cache's stamp-before-fan-out epoch protocol, a read can never observe
a state older than the epoch vector it was stamped with — replication
lag shifts load back to the primary instead of leaking stale results.

**Promotion.**  When the primary dies (process crash, poisoned WAL
after an fsync error), the most-caught-up replica is promoted: it
recovers from the *surviving bytes* — snapshot, then WAL replay with
torn-tail truncation — exactly as a restarted process would, so the
promoted primary holds every acknowledged write (and possibly a few
complete-but-unacknowledged records that survived the page cache,
which the durability contract allows).  A fresh replica is then
rebuilt from the snapshot + record mirror so the set keeps its
replication factor.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Callable

from repro.durability.fs import MemFS
from repro.durability.snapshot import load_snapshot, write_snapshot
from repro.durability.wal import WriteAheadLog
from repro.exceptions import DurabilityError, ReplicaError
from repro.runtime.executor import BatchExecutor
from repro.serving.engine import ShardedSearchEngine
from repro.serving.router import ShardRouter

if TYPE_CHECKING:  # pragma: no cover
    from repro.durability.manager import Durable
    from repro.runtime.metrics import MetricsRegistry


class Replica:
    """One read replica: a store plus the last LSN applied to it."""

    __slots__ = ("store", "applied_lsn")

    def __init__(self, store, applied_lsn: int = 0):
        self.store = store
        self.applied_lsn = applied_lsn


class ShardReplicaSet:
    """One shard's primary + replicas + per-shard WAL.

    Args:
        shard_id: shard index (names the WAL/snapshot files).
        store_factory: builds an empty ``Durable`` store; called once
            for the primary and once per replica, so every copy starts
            structurally identical.
        n_replicas: replication factor (>= 0; 0 keeps the WAL machinery
            but leaves nothing to promote).
        fs: durability filesystem for the shard's WAL + snapshots
            (``MemFS`` when omitted; tests wrap a ``FaultInjector``).
        ship_every: apply acknowledged records to replicas every Nth
            commit (1 = synchronous shipping; >1 creates real lag so
            the router's caught-up check earns its keep).
        snapshot_every: write a snapshot and reset the WAL after this
            many commits (``None`` disables).
        metrics: registry for promotion/shipping counters.
    """

    def __init__(
        self,
        shard_id: int,
        store_factory: Callable[[], "Durable"],
        n_replicas: int = 1,
        fs=None,
        ship_every: int = 1,
        snapshot_every: int | None = None,
        metrics: "MetricsRegistry | None" = None,
    ):
        if n_replicas < 0:
            raise ReplicaError(f"n_replicas must be >= 0, got {n_replicas}")
        if ship_every < 1:
            raise ReplicaError(f"ship_every must be >= 1, got {ship_every}")
        self.shard_id = shard_id
        self._factory = store_factory
        self.fs = fs if fs is not None else MemFS()
        self.wal = WriteAheadLog(self.fs, f"shard-{shard_id}.wal")
        self.snapshot_name = f"shard-{shard_id}.snapshot.json"
        self.ship_every = ship_every
        self.snapshot_every = snapshot_every
        self.metrics = metrics
        self.lock = threading.RLock()

        self.primary = store_factory()
        self.primary.journal = []
        self.replicas: list[Replica] = [
            Replica(store_factory()) for _ in range(n_replicas)
        ]
        self.down = False
        self.next_lsn = 1
        self.durable_lsn = 0
        self.snapshot_lsn = 0
        # Acknowledged records by LSN — the shipping mirror.  Everything
        # here is fsynced; promotion re-reads the *disk* bytes instead,
        # because a crash can strand this dict on the dead primary.
        self._records: dict[int, dict] = {}
        self._commits_since_ship = 0
        self._commits_since_snapshot = 0
        self._read_cursor = 0
        self.promotions = 0
        self.replica_rebuilds = 0

    # -- write path --------------------------------------------------------

    def mutate(self, fn: Callable[[Any], Any]) -> int | None:
        """Apply one mutation to the primary and make it durable.

        ``fn`` receives the primary store; whatever it journals is
        sealed into one WAL record whose LSN is returned (``None`` when
        the mutation journaled nothing).  A failed flush marks the
        primary down — after an fsync error its log tail is unknowable,
        so it must not acknowledge further writes; a replica takes over
        via :meth:`promote`.
        """
        with self.lock:
            if self.down:
                raise ReplicaError(
                    f"shard {self.shard_id} primary is down; promote a "
                    "replica before writing"
                )
            result = fn(self.primary)
            ops = list(self.primary.journal or ())
            if self.primary.journal:
                self.primary.journal.clear()
            if not ops:
                return result if isinstance(result, int) else None
            lsn = self.next_lsn
            self.next_lsn += 1
            record = {"lsn": lsn, "ops": ops}
            try:
                self.wal.append(record)
                self.wal.flush()
            except DurabilityError:
                self.down = True
                raise
            self.durable_lsn = lsn
            self._records[lsn] = record
            self._commits_since_ship += 1
            self._commits_since_snapshot += 1
            if (
                self.snapshot_every is not None
                and self._commits_since_snapshot >= self.snapshot_every
            ):
                self.snapshot()
            if self._commits_since_ship >= self.ship_every:
                self.ship()
            return lsn

    def snapshot(self) -> int:
        """Persist the primary's full state and reset the WAL."""
        with self.lock:
            if self.down:
                raise ReplicaError(
                    f"shard {self.shard_id} primary is down; cannot snapshot"
                )
            try:
                write_snapshot(
                    self.fs,
                    self.durable_lsn,
                    {"store": self.primary.durable_snapshot()},
                    self.snapshot_name,
                )
                self.wal.reset()
            except DurabilityError:
                self.down = True
                raise
            self.snapshot_lsn = self.durable_lsn
            self._commits_since_snapshot = 0
            # Records at or below the snapshot are covered by it.
            self._records = {
                lsn: rec
                for lsn, rec in self._records.items()
                if lsn > self.snapshot_lsn
            }
            self._count("snapshots_shipped")
            return self.snapshot_lsn

    # -- shipping ----------------------------------------------------------

    def ship(self) -> int:
        """Apply acknowledged records (and snapshots) to every replica.

        Returns the number of records applied across all replicas.
        """
        with self.lock:
            applied = 0
            for replica in self.replicas:
                applied += self._catch_up(replica)
            self._commits_since_ship = 0
            if applied:
                self._count("records_shipped", applied)
            return applied

    def _catch_up(self, replica: Replica) -> int:
        """Bring one replica to ``durable_lsn`` from snapshot + mirror."""
        applied = 0
        if replica.applied_lsn < self.snapshot_lsn:
            snapshot = load_snapshot(self.fs, self.snapshot_name)
            if snapshot is None:
                raise ReplicaError(
                    f"shard {self.shard_id} snapshot {self.snapshot_name} "
                    f"missing while replica lags it"
                )
            self._quiet_restore(replica.store, snapshot["stores"]["store"])
            replica.applied_lsn = int(snapshot.get("lsn", 0))
            applied += 1
        for lsn in sorted(self._records):
            if lsn <= replica.applied_lsn:
                continue
            for op in self._records[lsn]["ops"]:
                self._quiet_apply(replica.store, op)
            replica.applied_lsn = lsn
            applied += 1
        return applied

    # -- reads -------------------------------------------------------------

    def read_store(self):
        """The store that serves the next read.

        Caught-up replicas are preferred (round-robin) so reads scale
        out; a lagging replica is skipped — it would serve a stale
        epoch.  With the primary down this raises
        :class:`ReplicaError`; the tier promotes and retries.
        """
        with self.lock:
            if not self.down:
                eligible = [
                    replica
                    for replica in self.replicas
                    if replica.applied_lsn == self.durable_lsn
                ]
                if eligible:
                    self._read_cursor = (self._read_cursor + 1) % len(
                        eligible
                    )
                    self._count("replica_reads")
                    return eligible[self._read_cursor].store
                self._count("primary_reads")
                return self.primary
            raise ReplicaError(
                f"shard {self.shard_id} primary is down; reads need a "
                "promotion"
            )

    def lag_lsns(self) -> list[int]:
        """Per-replica lag behind the durable LSN, in LSNs."""
        with self.lock:
            return [
                self.durable_lsn - replica.applied_lsn
                for replica in self.replicas
            ]

    # -- failure & promotion -----------------------------------------------

    def crash_primary(self) -> None:
        """Declare the primary dead (its in-memory state is gone)."""
        with self.lock:
            self.down = True

    def promote(self) -> int:
        """Promote the most-caught-up replica to primary.

        The candidate recovers from the shard's *durable bytes* — load
        the snapshot if it is ahead of the replica, then replay the WAL
        suffix with torn-tail truncation — so the new primary reflects
        every acknowledged record regardless of shipping lag.  Returns
        the recovered durable LSN.
        """
        with self.lock:
            if not self.replicas:
                raise ReplicaError(
                    f"shard {self.shard_id} has no replica to promote"
                )
            candidate = max(self.replicas, key=lambda r: r.applied_lsn)
            self.replicas.remove(candidate)

            snapshot = load_snapshot(self.fs, self.snapshot_name)
            snapshot_lsn = 0
            if snapshot is not None:
                snapshot_lsn = int(snapshot.get("lsn", 0))
                if candidate.applied_lsn < snapshot_lsn:
                    self._quiet_restore(
                        candidate.store, snapshot["stores"]["store"]
                    )
                    candidate.applied_lsn = snapshot_lsn
            # The dead primary's WAL object may still buffer records
            # from a failed flush; a fresh one reads only disk bytes.
            self.wal = WriteAheadLog(self.fs, self.wal.name)
            replayed = self.wal.replay(truncate_torn=True)
            records: dict[int, dict] = {}
            last_lsn = max(candidate.applied_lsn, snapshot_lsn)
            for record in replayed.records:
                lsn = int(record.get("lsn", 0))
                if lsn <= snapshot_lsn:
                    continue
                records[lsn] = record
                if lsn > candidate.applied_lsn:
                    for op in record["ops"]:
                        self._quiet_apply(candidate.store, op)
                    candidate.applied_lsn = lsn
                last_lsn = max(last_lsn, lsn)

            self.primary = candidate.store
            self.primary.journal = []
            self.down = False
            self.durable_lsn = last_lsn
            self.next_lsn = last_lsn + 1
            self.snapshot_lsn = snapshot_lsn
            self._records = records
            self.promotions += 1
            self._count("promotions")
            self._rebuild_replica()
            return self.durable_lsn

    def _rebuild_replica(self) -> None:
        """Restore the replication factor with a fresh bootstrap."""
        replica = Replica(self._factory())
        self._catch_up(replica)
        self.replicas.append(replica)
        self.replica_rebuilds += 1

    # -- observability -----------------------------------------------------

    def stats(self) -> dict:
        with self.lock:
            return {
                "durable_lsn": self.durable_lsn,
                "snapshot_lsn": self.snapshot_lsn,
                "primary_down": self.down,
                "n_replicas": len(self.replicas),
                "lag_lsns": self.lag_lsns(),
                "promotions": self.promotions,
                "replica_rebuilds": self.replica_rebuilds,
            }

    # -- internals ---------------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.increment(f"serving.replica.{name}", amount)

    @staticmethod
    def _quiet_apply(store, op: dict) -> None:
        journal, store.journal = store.journal, None
        try:
            store.durable_apply(op)
        finally:
            store.journal = journal

    @staticmethod
    def _quiet_restore(store, state: dict) -> None:
        journal, store.journal = store.journal, None
        try:
            store.durable_restore(state)
        finally:
            store.journal = journal


class ReplicatedShardedSearchEngine(ShardedSearchEngine):
    """N-way sharded search where every shard is a replica set.

    Semantically identical to
    :class:`~repro.serving.engine.ShardedSearchEngine` — the fan-out
    core, exact rank equivalence via global BM25 statistics and the
    epoch-stamped query cache are inherited — but each shard survives
    its primary's death: reads fail over to the most-caught-up replica
    (promotion recovers from the shard WAL) and writes resume against
    the promoted primary.  Global statistics sum over the primaries:
    they hold every acknowledged write, and replicas only serve while
    byte-equivalent to their primary, so the statistics are exact for
    whichever copy executes the query.

    Args:
        n_shards / field_analyzers / default_field / router /
            cache_size / metrics: as for ``ShardedSearchEngine``.
        n_replicas: replicas per shard.
        ship_every / snapshot_every: replication cadence (see
            :class:`ShardReplicaSet`).
        fs_factory: ``shard_id -> fs`` for per-shard WAL storage
            (``MemFS`` each when omitted; fuzzing injects faults here).
        executor_mode: fan-out executor mode (``"serial"`` for
            deterministic tests).
    """

    metric_prefix = "serving.replica"
    shard_timer = "serving.replica.shard{}.search_seconds"
    # Every replica set owns its shard's WAL and recovers from it on
    # promotion, so the tier cannot also ride a DurabilityManager: it is
    # deliberately not ``Durable`` (a protocol member set to None fails
    # the runtime ``isinstance`` check).
    journal = durable_apply = durable_snapshot = durable_restore = None

    def __init__(
        self,
        n_shards: int,
        n_replicas: int = 1,
        field_analyzers: dict[str, dict] | None = None,
        default_field: str = "body",
        router: ShardRouter | None = None,
        cache_size: int = 256,
        ship_every: int = 1,
        snapshot_every: int | None = None,
        fs_factory: Callable[[int], Any] | None = None,
        executor_mode: str = "thread",
        metrics: "MetricsRegistry | None" = None,
    ):
        self._init_core(n_shards, default_field, router, cache_size, metrics)
        self.sets: list[ShardReplicaSet] = [
            ShardReplicaSet(
                shard_id,
                lambda: self._new_store(field_analyzers),
                n_replicas=n_replicas,
                fs=fs_factory(shard_id) if fs_factory is not None else None,
                ship_every=ship_every,
                snapshot_every=snapshot_every,
                metrics=metrics,
            )
            for shard_id in range(n_shards)
        ]
        self._executor = BatchExecutor(
            workers=n_shards, mode=executor_mode
        )
        self.failovers = 0

    def replica_set(self, shard_id: int) -> ShardReplicaSet:
        return self.sets[shard_id]

    # -- how a replica set is read and written -----------------------------

    def _primaries(self) -> list:
        return [set_.primary for set_ in self.sets]

    def _read(self, shard_id: int, fn: Callable[[Any], Any]) -> Any:
        """Serve from a caught-up replica (or the primary), promoting
        first when the primary is down."""
        set_ = self.sets[shard_id]
        with set_.lock:
            try:
                store = set_.read_store()
            except ReplicaError:
                self.promote(shard_id)
                store = set_.read_store()
            return fn(store)

    def _mutate(self, shard_id: int, fn: Callable[[Any], Any]) -> Any:
        """Write through the shard's primary, failing over once when it
        is already known to be down."""
        results: list = []

        def capture(store) -> None:
            results.append(fn(store))

        try:
            self.sets[shard_id].mutate(capture)
        except ReplicaError:
            self.promote(shard_id)
            self.sets[shard_id].mutate(capture)
        return results[0]

    # -- failover ----------------------------------------------------------

    def crash_primary(self, shard_id: int) -> None:
        """Declare one shard's primary dead (test/fuzz hook)."""
        self.sets[shard_id].crash_primary()

    def promote(self, shard_id: int) -> int:
        """Promote a replica on one shard and invalidate cached reads.

        The promoted state can differ from the dead primary's memory
        (unacknowledged writes are legitimately lost), so the shard
        epoch must bump — entries cached against the old state become
        structurally unservable.
        """
        lsn = self.sets[shard_id].promote()
        self.router.bump(shard_id)
        self.failovers += 1
        if self.metrics is not None:
            self.metrics.increment("serving.replica.failovers")
        return lsn

    def ship_all(self) -> int:
        """Force shipping on every shard (tests, graceful drains)."""
        return sum(s.ship() for s in self.sets)

    # -- observability -----------------------------------------------------

    def stats(self) -> dict:
        """Replication health for ``/stats``: lag, promotions, epochs."""
        out = super().stats()
        out["failovers"] = self.failovers
        out["replication"] = [s.stats() for s in self.sets]
        return out
