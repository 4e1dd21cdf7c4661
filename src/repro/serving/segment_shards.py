"""Process-parallel shard serving over mmap'd immutable segments.

``ProcessShardedSegmentEngine`` partitions documents across N
:class:`~repro.search.segment_engine.SegmentSearchEngine` shards (one
segment directory per shard) and executes query fan-out on a
**persistent process pool** — each worker process mmaps its shard's
segments once per manifest generation and keeps them warm across
queries, so fan-out costs IPC of a query dict and a top-k id/score
list instead of GIL-bound Python scoring.

Exact rank equivalence works as in the thread-sharded engine, but the
corpus statistics have to cross a process boundary: the parent walks
the query, collects every ``(field, term)`` the execution will score,
aggregates live ``N`` / total length / ``df`` across all shards, and
ships that small payload with the query.  Workers score through a
stats-override composite, so per-document BM25 contributions are
bit-identical to the unsharded in-memory engine.

The parent keeps its own engine instances for mutations, statistics
and stored-field resolution; workers are pure readers of the on-disk
segment directories (delete bitmaps included — they live in each
shard's manifest).
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

from repro.exceptions import SearchError
from repro.runtime.executor import BatchExecutor
from repro.search.engine import ScoredHit, SearchEngine
from repro.search.segment_engine import SegmentSearchEngine
from repro.serving.engine import ShardedSearchEngine, _top_k

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.metrics import MetricsRegistry


class _PayloadStats:
    """Corpus statistics reconstructed from a shipped payload."""

    __slots__ = ("n_documents", "total_length", "_df")

    def __init__(self, n_documents: int, total_length: int, df: dict):
        self.n_documents = n_documents
        self.total_length = total_length
        self._df = df

    def document_frequency(self, term: str) -> int:
        return self._df.get(term, 0)


# Per-process cache: shard directory -> (manifest generation, engine).
# Worker processes are single-threaded; no locking needed.
_WORKER_ENGINES: dict[str, tuple[int, SegmentSearchEngine]] = {}


def _worker_search(task: tuple) -> list[tuple]:
    """Run one query on one shard inside a pool worker.

    ``task`` is ``(shard_dir, generation, field_analyzers,
    default_field, query, size, stats_payload)``.  Returns the shard's
    local top-``size`` as ``(doc_id, score)`` pairs; the parent merges
    and resolves stored fields from its own engines.
    """
    (
        shard_dir,
        generation,
        field_analyzers,
        default_field,
        query,
        size,
        stats_payload,
    ) = task
    cached = _WORKER_ENGINES.get(shard_dir)
    if cached is None or cached[0] != generation:
        if cached is not None:
            cached[1].close()
        engine = SegmentSearchEngine(
            field_analyzers,
            default_field=default_field,
            segment_dir=shard_dir,
        )
        _WORKER_ENGINES[shard_dir] = (generation, engine)
    else:
        engine = cached[1]
    stats = {
        field: _PayloadStats(
            payload["n"], payload["total"], payload["df"]
        )
        for field, payload in stats_payload.items()
    }
    engine.stats_provider = lambda field: stats[field]
    try:
        hits = engine.search(query, size=size)
    finally:
        engine.stats_provider = None
    return [(hit.doc_id, hit.score) for hit in hits]


class ProcessShardedSegmentEngine(ShardedSearchEngine):
    """N-way segment-sharded search served by process workers.

    The fan-out core (routing, epochs, cache-stamped ``search``, merge,
    durability conduit) is :class:`ShardedSearchEngine`'s; this tier
    only changes how the shards execute a query.

    Args:
        n_shards: partition count.
        segment_root: directory holding one ``shard-K`` segment
            directory per shard.
        field_analyzers / default_field: as for
            :class:`~repro.search.engine.SearchEngine`.
        cache_size: epoch-validated query-cache entries (0 disables).
        flush_threshold / merge_factor: per-shard segment policy.
        mode: executor mode — ``"process"`` (default) for the real
            worker pool, ``"serial"`` to run fan-out inline (tests).
        query_deadline: seconds each fan-out may spend in the worker
            pool before the query fails and the pool is recycled
            (``None`` waits forever).  A hung or killed worker process
            must not wedge the parent: on a deadline miss the query
            raises :class:`SearchError`, the stuck workers are
            terminated, and fresh ones serve the next query (they
            re-mmap warm segments on first use).
        metrics: registry for serving counters.
    """

    metric_prefix = "serving.segments"
    shard_timer = "serving.segshard{}.search_seconds"

    def __init__(
        self,
        n_shards: int,
        segment_root: str,
        field_analyzers: dict[str, dict] | None = None,
        default_field: str = "body",
        cache_size: int = 256,
        flush_threshold: int = 4096,
        merge_factor: int = 8,
        mode: str = "process",
        query_deadline: float | None = None,
        metrics: "MetricsRegistry | None" = None,
    ):
        self._init_core(n_shards, default_field, None, cache_size, metrics)
        self.segment_root = str(segment_root)
        os.makedirs(self.segment_root, exist_ok=True)
        self._field_analyzers = dict(field_analyzers or {})
        self.shards: list[SegmentSearchEngine] = [
            SegmentSearchEngine(
                field_analyzers,
                default_field=default_field,
                segment_dir=os.path.join(self.segment_root, f"shard-{i}"),
                flush_threshold=flush_threshold,
                merge_factor=merge_factor,
            )
            for i in range(n_shards)
        ]
        if mode == "process":
            _ensure_child_import_path()
        self._executor = BatchExecutor(
            workers=n_shards if mode != "serial" else 1,
            mode=mode,
            persistent=True,
        )
        self.query_deadline = query_deadline
        self.worker_timeouts = 0

    def flush(self) -> None:
        """Seal every shard's write buffer (workers only see sealed
        documents, so this runs automatically before each fan-out)."""
        for shard in self.shards:
            shard.flush()

    # -- search ------------------------------------------------------------

    def _fan_out(self, query: dict, size: int) -> list[ScoredHit]:
        self.flush()
        field_terms: dict[str, set] = {}
        self._collect_field_terms(query, field_terms)
        stats_payload = {
            field: self._field_payload(field, terms)
            for field, terms in field_terms.items()
        }
        tasks = [
            (
                shard.segment_dir,
                shard.generation,
                self._field_analyzers,
                self.default_field,
                query,
                size,
                stats_payload,
            )
            for shard in self.shards
        ]
        outcomes = self._executor.map(
            _worker_search, tasks, timeout=self.query_deadline
        )
        for shard_id, outcome in enumerate(outcomes):
            if isinstance(outcome.error, TimeoutError):
                # A worker is hung (or its process was killed).
                # Recycle the pool so the stuck slot does not
                # poison every subsequent query, then fail fast.
                self.worker_timeouts += 1
                if self.metrics is not None:
                    self.metrics.increment(
                        "serving.segments.worker_timeouts"
                    )
                self._executor.recycle()
                raise SearchError(
                    f"shard {shard_id} worker missed the "
                    f"{self.query_deadline:.3f}s query deadline; "
                    "worker pool recycled"
                ) from outcome.error
        # Workers ship bare (doc_id, score) pairs; stored fields are
        # resolved here, for the merged top-k only.
        top = _top_k(
            [
                ScoredHit(doc_id, score, {})
                for doc_id, score in self._gather(outcomes)
            ],
            size,
        )
        return [
            ScoredHit(
                hit.doc_id,
                hit.score,
                self.shards[self.router.shard_of(hit.doc_id)]._source(
                    hit.doc_id
                ),
            )
            for hit in top
        ]

    def _field_payload(self, field: str, terms: set) -> dict:
        stats = self._stats_for_field(field)
        return {
            "n": stats.n_documents,
            "total": stats.total_length,
            "df": {
                term: stats.document_frequency(term)
                for term in sorted(terms)
            },
        }

    def _collect_field_terms(
        self, query: dict, out: dict[str, set]
    ) -> None:
        """Gather every (field, term) the execution of ``query`` will
        score, mirroring the engine's dispatch (and its validation
        errors, so malformed queries fail identically)."""
        if not isinstance(query, dict) or len(query) != 1:
            raise SearchError(
                "query must be a dict with exactly one top-level clause"
            )
        kind, body = next(iter(query.items()))
        analyzer_of = self.shards[0]._analyzer_for
        if kind == "match":
            field, text = SearchEngine._unpack(body, "match")
            out.setdefault(field, set()).update(
                analyzer_of(field).terms(str(text))
            )
        elif kind == "match_phrase":
            field, text = SearchEngine._unpack(body, "match_phrase")
            tokens = analyzer_of(field).analyze(str(text))
            by_position: dict[int, str] = {}
            for token in tokens:
                current = by_position.get(token.position)
                if current is None or len(token.term) > len(current):
                    by_position[token.position] = token.term
            out.setdefault(field, set()).update(by_position.values())
        elif kind == "term":
            field, value = SearchEngine._unpack(body, "term")
            out.setdefault(field, set()).add(str(value))
        elif kind == "multi_match":
            if not isinstance(body, dict) or "query" not in body:
                raise SearchError("multi_match requires a query")
            text = str(body["query"])
            fields = body.get("fields") or [self.default_field]
            for spec in fields:
                field, _, boost_text = str(spec).partition("^")
                if boost_text:
                    try:
                        float(boost_text)
                    except ValueError as exc:
                        raise SearchError(
                            f"bad field boost: {spec!r}"
                        ) from exc
                out.setdefault(field, set()).update(
                    analyzer_of(field).terms(text)
                )
        elif kind == "bool":
            if not isinstance(body, dict):
                raise SearchError("bool body must be a dict")
            for clause in ("must", "should", "must_not"):
                for sub in body.get(clause, []):
                    self._collect_field_terms(sub, out)
        elif kind == "match_all":
            pass
        else:
            raise SearchError(f"unknown query clause: {kind!r}")

    def close(self) -> None:
        """Shut the worker pool down and release segment mmaps."""
        super().close()
        for shard in self.shards:
            shard.close()

    def stats(self) -> dict:
        out = super().stats()
        out["shard_segments"] = [shard.n_segments for shard in self.shards]
        out["worker_timeouts"] = self.worker_timeouts
        return out


def _ensure_child_import_path() -> None:
    """Make ``repro`` importable in spawn/forkserver pool children.

    Spawned children re-import the worker module from scratch; when the
    package was put on ``sys.path`` by hand (PYTHONPATH=src, test
    harnesses), export that path so the children inherit it.
    """
    import repro

    package_root = os.path.dirname(
        os.path.dirname(os.path.abspath(repro.__file__))
    )
    existing = os.environ.get("PYTHONPATH", "")
    parts = existing.split(os.pathsep) if existing else []
    if package_root not in parts:
        os.environ["PYTHONPATH"] = os.pathsep.join([package_root] + parts)
