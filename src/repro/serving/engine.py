"""Sharded keyword serving: per-shard fan-out, exact top-k merge.

``ShardedSearchEngine`` partitions documents across N independent
:class:`~repro.search.engine.SearchEngine` shards by doc-id hash and
executes every query as a parallel fan-out on the runtime
:class:`~repro.runtime.executor.BatchExecutor`, merging per-shard
top-k lists into the global top-k.

**Exact rank equivalence.**  BM25 depends on corpus statistics (``N``,
``df``, avgdl) that a shard holding 1/N of the corpus gets wrong.
Each shard therefore scores through a
:class:`~repro.search.engine.CorpusStatsIndexView` whose statistics
are aggregated across *all* shards, so per-document scores are
bit-identical to the unsharded engine and the merged top-k (with the
engine's ``(-score, doc_id)`` tie-break) is exactly its ranking.

An epoch-stamped :class:`~repro.serving.cache.QueryCache` sits in
front of the fan-out; every ``index``/``delete`` bumps the owning
shard's epoch, so a cached result can never be served stale.

This class is the one fan-out core: routing, epochs, the cache-stamped
``search``, the merge, the shard-tagged durability conduit and the
statistics aggregator live here once.  The process-pool segment tier
(:mod:`repro.serving.segment_shards`) and the replicated tier
(:mod:`repro.serving.replica`) subclass it and override only how one
shard is read, how one shard is written, and which stores the global
statistics sum over.
"""

from __future__ import annotations

import json
import time
from typing import TYPE_CHECKING, Any, Callable

from repro.exceptions import SearchError
from repro.runtime.executor import BatchExecutor
from repro.search.engine import ScoredHit, SearchEngine
from repro.serving.cache import QueryCache
from repro.serving.router import ShardRouter

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.metrics import MetricsRegistry


class _GlobalFieldStats:
    """Corpus statistics for one field, summed across every shard.

    ``local_stats`` holds each shard's live statistics object
    (``n_documents``, ``total_length``, ``document_frequency``).  One
    is built per scoring call, so a promoted primary or a freshly
    sealed segment is counted by the next query.
    """

    __slots__ = ("_local_stats",)

    def __init__(self, local_stats: list):
        self._local_stats = local_stats

    @property
    def n_documents(self) -> int:
        return sum(local.n_documents for local in self._local_stats)

    @property
    def total_length(self) -> int:
        return sum(local.total_length for local in self._local_stats)

    def document_frequency(self, term: str) -> int:
        return sum(
            local.document_frequency(term) for local in self._local_stats
        )


class _ShardJournal:
    """Conduit: a shard store's journaled ops land in the owning
    facade's journal tagged with the shard id, so one WAL record can
    carry (and replay) mutations across partitions."""

    __slots__ = ("_owner", "_shard_id")

    def __init__(self, owner, shard_id: int):
        self._owner = owner
        self._shard_id = shard_id

    def append(self, op: dict) -> None:
        journal = self._owner.journal
        if journal is not None:
            journal.append({"shard": self._shard_id, "o": op})


class ShardedSearchEngine:
    """N-way sharded :class:`SearchEngine` with identical semantics.

    Args:
        n_shards: partition count (1 keeps the fan-out machinery but a
            single partition; useful for cache-only serving).
        field_analyzers / default_field: as for :class:`SearchEngine`
            (identical analyzers on every shard).
        router: shared :class:`ShardRouter` (created when omitted).
        cache_size: query-cache entries (0 disables the cache).
        metrics: registry for per-shard and cache counters.
    """

    # Counter/timer names; subclasses keep their own families.
    metric_prefix = "serving.engine"
    shard_timer = "serving.shard{}.search_seconds"

    def __init__(
        self,
        n_shards: int,
        field_analyzers: dict[str, dict] | None = None,
        default_field: str = "body",
        router: ShardRouter | None = None,
        cache_size: int = 256,
        metrics: "MetricsRegistry | None" = None,
    ):
        self._init_core(n_shards, default_field, router, cache_size, metrics)
        self.shards: list[SearchEngine] = [
            self._new_store(field_analyzers) for _ in range(n_shards)
        ]
        self._executor = BatchExecutor(workers=n_shards, mode="thread")

    def _init_core(
        self, n_shards, default_field, router, cache_size, metrics
    ) -> None:
        """Router, cache and journal state shared by every tier."""
        if n_shards < 1:
            raise SearchError(f"n_shards must be >= 1, got {n_shards}")
        self.router = router if router is not None else ShardRouter(n_shards)
        if self.router.n_shards != n_shards:
            raise SearchError(
                f"router has {self.router.n_shards} shards, engine asked "
                f"for {n_shards}"
            )
        self.default_field = default_field
        self.metrics = metrics
        self.cache = (
            QueryCache(cache_size, self.router.epochs) if cache_size else None
        )
        self._journal: list | None = None

    def _new_store(self, field_analyzers) -> SearchEngine:
        """An empty in-memory shard store scoring under global stats."""
        store = SearchEngine(field_analyzers, default_field=self.default_field)
        store.stats_provider = self._stats_for_field
        return store

    @property
    def n_shards(self) -> int:
        return self.router.n_shards

    @property
    def epoch(self) -> tuple[int, ...]:
        """The router's epoch vector (the cache validity stamp)."""
        return self.router.epochs()

    def shard(self, shard_id: int):
        """Direct access to one partition (serving internals, tests)."""
        return self._primaries()[shard_id]

    # -- what a tier overrides ---------------------------------------------

    def _primaries(self) -> list:
        """The store holding every acknowledged write of each shard."""
        return self.shards

    def _read(self, shard_id: int, fn: Callable[[Any], Any]) -> Any:
        """Run ``fn(store)`` on the store serving this shard's reads."""
        return fn(self.shards[shard_id])

    def _mutate(self, shard_id: int, fn: Callable[[Any], Any]) -> Any:
        """Run ``fn(store)`` on the store taking this shard's writes."""
        return fn(self.shards[shard_id])

    def _stats_for_field(self, field_name: str) -> _GlobalFieldStats:
        return _GlobalFieldStats(
            [store.field_stats(field_name) for store in self._primaries()]
        )

    # -- indexing ----------------------------------------------------------

    def index(self, doc_id: Any, fields: dict[str, str]) -> None:
        """Index (or re-index) a document on its owning shard."""
        shard_id = self.router.shard_of(doc_id)
        self._mutate(shard_id, lambda store: store.index(doc_id, fields))
        self.router.bump(shard_id)

    def delete(self, doc_id: Any) -> bool:
        """Remove a document; returns False when it was absent."""
        shard_id = self.router.shard_of(doc_id)
        deleted = self._mutate(shard_id, lambda store: store.delete(doc_id))
        if deleted:
            self.router.bump(shard_id)
        return deleted

    @property
    def n_documents(self) -> int:
        return sum(store.n_documents for store in self._primaries())

    # -- search ------------------------------------------------------------

    def search(self, query: str | dict, size: int = 10) -> list[ScoredHit]:
        """Top ``size`` hits, exactly as the unsharded engine ranks them.

        Cache-hitting queries skip the fan-out entirely; misses fan out
        one task per shard, each returning its local top ``size`` under
        global statistics, then merge on ``(-score, doc_id)``.
        """
        start = time.perf_counter()
        if isinstance(query, str):
            query = {"match": {self.default_field: query}}
        key = None
        stamp = None
        if self.cache is not None:
            key = (_canonical(query), size)
            cached = self.cache.get(key)
            if cached is not None:
                self._record_search(start, cached=True)
                return list(cached)
            # Capture the epoch vector BEFORE the fan-out: a mutation
            # (or promotion) landing while shards compute must make
            # this entry stale at store time, not get papered over by
            # a fresh stamp.
            stamp = self.router.epochs()
        hits = self._fan_out(query, size)
        if self.cache is not None:
            self.cache.put(key, list(hits), stamp=stamp)
        self._record_search(start, cached=False)
        return hits

    def _fan_out(self, query: dict, size: int) -> list[ScoredHit]:
        outcomes = self._executor.map(
            lambda shard_id: self._read(
                shard_id, lambda store: store.search(query, size=size)
            ),
            range(self.n_shards),
        )
        return _top_k(self._gather(outcomes), size)

    def _gather(self, outcomes) -> list:
        """Per-shard results concatenated in shard order; the first
        failed shard's error propagates."""
        merged: list = []
        for shard_id, outcome in enumerate(outcomes):
            if not outcome.ok:
                raise outcome.error
            if self.metrics is not None:
                self.metrics.record(
                    self.shard_timer.format(shard_id), outcome.duration
                )
            merged.extend(outcome.value)
        return merged

    def _record_search(self, start: float, cached: bool) -> None:
        if self.metrics is None:
            return
        prefix = self.metric_prefix
        self.metrics.increment(f"{prefix}.searches")
        self.metrics.increment(
            f"{prefix}.cache_hits" if cached else f"{prefix}.cache_misses"
        )
        self.metrics.record(
            f"{prefix}.search_seconds", time.perf_counter() - start
        )

    def explain_terms(self, field: str, text: str) -> list[str]:
        """Analyzer output (identical on every shard)."""
        return self.shard(0).explain_terms(field, text)

    def highlight(
        self, doc_id: Any, field: str, query_text: str, window: int = 60
    ) -> list[str]:
        """Snippets from the owning shard's serving copy."""
        return self._read(
            self.router.shard_of(doc_id),
            lambda store: store.highlight(
                doc_id, field, query_text, window=window
            ),
        )

    def close(self) -> None:
        """Shut the fan-out executor down."""
        self._executor.close()

    # -- durability (repro.durability.Durable protocol) --------------------

    @property
    def journal(self) -> list | None:
        return self._journal

    @journal.setter
    def journal(self, value: list | None) -> None:
        # Attaching (or the manager's quiet-replay suspension) wires or
        # unwires the per-shard conduits in lockstep, so shard-level
        # mutations journal into this facade exactly while it has one.
        self._journal = value
        for shard_id, shard in enumerate(self.shards):
            shard.journal = (
                _ShardJournal(self, shard_id) if value is not None else None
            )

    def durable_apply(self, op: dict) -> None:
        """Replay one shard-tagged op on the owning partition."""
        shard_id = int(op["shard"])
        self.shards[shard_id].durable_apply(op["o"])
        self.router.bump(shard_id)

    def durable_snapshot(self) -> dict:
        return {
            "n_shards": self.n_shards,
            "shards": [shard.durable_snapshot() for shard in self.shards],
        }

    def durable_restore(self, state: dict) -> None:
        """Restore every partition; shard count must match the snapshot
        (resharding is a rebuild, not a restore)."""
        if int(state.get("n_shards", -1)) != self.n_shards:
            raise SearchError(
                f"snapshot has {state.get('n_shards')} shards, engine has "
                f"{self.n_shards}"
            )
        for shard_id, shard_state in enumerate(state["shards"]):
            self.shards[shard_id].durable_restore(shard_state)
            self.router.bump(shard_id)

    # -- observability -----------------------------------------------------

    def stats(self) -> dict:
        """Shard occupancy, epochs and cache health for ``/stats``."""
        out = {
            "n_shards": self.n_shards,
            "epochs": list(self.router.epochs()),
            "shard_documents": [
                store.n_documents for store in self._primaries()
            ],
        }
        if self.cache is not None:
            out["cache"] = self.cache.stats()
        return out


def _top_k(hits: list[ScoredHit], size: int) -> list[ScoredHit]:
    """The global top ``size`` in the unsharded engine's order."""
    hits.sort(key=lambda hit: (-hit.score, str(hit.doc_id)))
    return hits[:size]


def _canonical(query: dict) -> str:
    """Stable cache key text for a query dict."""
    return json.dumps(query, sort_keys=True, ensure_ascii=False, default=str)
