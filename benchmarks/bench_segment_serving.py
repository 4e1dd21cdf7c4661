"""Segment-index serving at scale: mmap'd postings vs in-memory.

Builds a deterministic ~100k-document corpus (``BENCH_SEGMENT_DOCS``
overrides the count; CI's tier-2 smoke job runs a reduced corpus) and
measures **cold** query throughput — every query distinct — for the two
keyword engines:

* the classic in-memory :class:`SearchEngine`, and
* one :class:`SegmentSearchEngine` over mmap'd numpy-packed segments
  (vectorized BM25 + top-k selection).

Results are asserted **bit-identical** on a sample before anything is
timed — the speedup must not come from answering a different question.
The acceptance bar is an in-run ratio, both sides built and timed in
this process: the segment index beats the in-memory engine.
"""

from __future__ import annotations

import os
import time

from conftest import write_result

from repro.corpus.scale import build_scale_corpus, scale_queries
from repro.search.analysis import STANDARD_ANALYZER_CONFIG
from repro.search.engine import SearchEngine
from repro.search.segment_engine import SegmentSearchEngine

N_DOCS = int(os.environ.get("BENCH_SEGMENT_DOCS", "100000"))
N_QUERIES = 60
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

    try:
        reference = _answers(memory.search, sample)
        assert _answers(segment.search, sample) == reference, (
            "segment-index results diverged from in-memory"
        )

        memory_qps = _qps(memory.search, timed)
        segment_qps = _qps(segment.search, timed)

        lines = [
            f"Segment serving at scale ({N_DOCS} docs, "
            f"{N_QUERIES} distinct cold queries)",
            f"{'configuration':<30}{'build s':>9}{'qps':>9}"
            f"{'vs memory':>11}",
            f"{'in-memory':<30}{memory_build:>9.1f}"
            f"{memory_qps:>9.1f}{1.0:>10.2f}x",
            f"{'segment index':<30}{segment_build:>9.1f}"
            f"{segment_qps:>9.1f}{segment_qps / memory_qps:>10.2f}x",
        ]
        write_result("bench_segment_serving", lines)

        # Acceptance: vectorized BM25 + top-k selection over mmap'd
        # segments beats the in-memory engine at scale.
        assert segment_qps > memory_qps, (
            f"segment index slower than in-memory "
            f"({segment_qps:.1f} vs {memory_qps:.1f} qps)"
        )
    finally:
        segment.close()
