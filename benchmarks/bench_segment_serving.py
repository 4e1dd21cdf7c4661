"""Segment-index serving at scale: mmap'd postings vs in-memory.

Builds a deterministic ~100k-document corpus (``BENCH_SEGMENT_DOCS``
overrides the count; CI's tier-2 smoke job runs a reduced corpus) and
measures **cold** query throughput — every query distinct, caches never
hit — across three configurations:

* the classic unsharded in-memory :class:`SearchEngine`,
* one :class:`SegmentSearchEngine` over mmap'd numpy-packed segments
  (vectorized BM25 + top-k selection), and
* a 4-shard :class:`ProcessShardedSegmentEngine` fanning out to
  persistent process workers that mmap their shard's segments.

Results are asserted **bit-identical** across all three on a sample
before anything is timed — the speedup must not come from answering a
different question.  The acceptance bar is an in-run ratio, both sides
built and timed in this process: cold 4-shard process fan-out beats the
unsharded in-memory engine, and so does the single-process segment
index.
"""

from __future__ import annotations

import os
import time

from conftest import write_result

from repro.corpus.scale import build_scale_corpus, scale_queries
from repro.search.analysis import STANDARD_ANALYZER_CONFIG
from repro.search.engine import SearchEngine
from repro.search.segment_engine import SegmentSearchEngine
from repro.serving.segment_shards import ProcessShardedSegmentEngine

N_DOCS = int(os.environ.get("BENCH_SEGMENT_DOCS", "100000"))
N_QUERIES = 60
N_SHARDS = 4
FLUSH_THRESHOLD = 20_000

FIELD_ANALYZERS = {
    "body": STANDARD_ANALYZER_CONFIG,
    "title": STANDARD_ANALYZER_CONFIG,
}


def _qps(search, queries) -> float:
    start = time.perf_counter()
    for query in queries:
        search(query, size=10)
    return len(queries) / (time.perf_counter() - start)


def _answers(search, queries):
    return [
        [(h.doc_id, h.score) for h in search(query, size=10)]
        for query in queries
    ]


def test_segment_serving(tmp_path):
    docs = build_scale_corpus(N_DOCS, seed=5)
    # Two disjoint workloads: the timed one, and a sample for the
    # bit-identity assertion (kept small; it runs on every engine).
    timed = scale_queries(N_QUERIES, seed=7)
    sample = scale_queries(12, seed=11)

    build_started = time.perf_counter()
    memory = SearchEngine(FIELD_ANALYZERS)
    for doc in docs:
        memory.index(doc.doc_id, doc.fields())
    memory_build = time.perf_counter() - build_started

    build_started = time.perf_counter()
    segment = SegmentSearchEngine(
        FIELD_ANALYZERS,
        segment_dir=str(tmp_path / "segments"),
        flush_threshold=FLUSH_THRESHOLD,
    )
    for doc in docs:
        segment.index(doc.doc_id, doc.fields())
    segment.flush()
    segment_build = time.perf_counter() - build_started

    build_started = time.perf_counter()
    sharded = ProcessShardedSegmentEngine(
        N_SHARDS,
        segment_root=str(tmp_path / "shards"),
        field_analyzers=FIELD_ANALYZERS,
        mode="process",
        flush_threshold=FLUSH_THRESHOLD,
    )
    for doc in docs:
        sharded.index(doc.doc_id, doc.fields())
    sharded.flush()
    sharded_build = time.perf_counter() - build_started

    try:
        reference = _answers(memory.search, sample)
        assert _answers(segment.search, sample) == reference, (
            "segment-index results diverged from in-memory"
        )
        assert _answers(sharded.search, sample) == reference, (
            "process fan-out results diverged from in-memory"
        )

        memory_qps = _qps(memory.search, timed)
        segment_qps = _qps(segment.search, timed)
        # Warm the worker pool (engines mmap + cache per generation)
        # with one query, then measure the cold-cache fan-out: every
        # timed query is distinct, so the query cache never hits.
        sharded.search(sample[0], size=10)
        sharded_qps = _qps(sharded.search, timed)
        speedup = sharded_qps / memory_qps

        lines = [
            f"Segment serving at scale ({N_DOCS} docs, "
            f"{N_QUERIES} distinct cold queries)",
            f"{'configuration':<30}{'build s':>9}{'qps':>9}"
            f"{'vs memory':>11}",
            f"{'unsharded in-memory':<30}{memory_build:>9.1f}"
            f"{memory_qps:>9.1f}{1.0:>10.2f}x",
            f"{'segment index (1 proc)':<30}{segment_build:>9.1f}"
            f"{segment_qps:>9.1f}{segment_qps / memory_qps:>10.2f}x",
            f"{f'{N_SHARDS}-shard process (cold)':<30}"
            f"{sharded_build:>9.1f}{sharded_qps:>9.1f}"
            f"{speedup:>10.2f}x",
        ]
        write_result("bench_segment_serving", lines)

        # Acceptance: cold sharded fan-out over mmap'd segments beats
        # the unsharded in-memory engine at scale.
        assert speedup > 1.0, (
            f"cold {N_SHARDS}-shard process serving only {speedup:.2f}x "
            f"unsharded in-memory ({sharded_qps:.1f} vs "
            f"{memory_qps:.1f} qps)"
        )
        # The single-process segment index must also not lag memory:
        # vectorized BM25 + top-k selection carries it.
        assert segment_qps > memory_qps, (
            f"segment index slower than in-memory "
            f"({segment_qps:.1f} vs {memory_qps:.1f} qps)"
        )
    finally:
        sharded.close()
        segment.close()
