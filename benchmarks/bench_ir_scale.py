"""CREATe-IR at 2,000 reports: both halves of a Figure-6 search.

**Graph search.**  For every query concept it finds the nodes of its
``entityType`` that can stand for it.  The number of such nodes
grows with the corpus; the number of distinct labels they carry grows
far slower, because reports phrase the same findings the same way.
:func:`repro.ir.searcher.concept_candidates` stems the concept once and
scores each distinct label of its type once, from the graph's
``(entityType, label)`` buckets, taking each label's stems from the
per-process memo :func:`repro.ir.ranking.label_stems`;
:func:`repro.testing.oracles.concept_candidates_scan` stems, matches
and scores every node of the type on every call.

* **Identity first**: ``graph_search`` over pre-parsed Figure-6 queries
  answers the same :class:`GraphMatchDetail` lists whichever function
  supplies the candidates (the swapped-in scan is counted, so the swap
  reaches the call ``graph_search`` makes).
* **Then the ratio**: ms per query concept both ways, in this process,
  and the fast path (memo warm, best of 3) must be >= 65x the scan.
  Its cold first pass, with the memo just cleared, is printed beside it,
  so the one-time cost of stemming every label shows.  ``graph_search``
  p50 per query is printed both ways.

**Keyword search.**  ``SearchEngine.search`` scores a query in one
numpy pass over postings arrays; :func:`repro.testing.oracles.
bm25_scores_scalar` accumulates the same BM25 one posting at a time.

* **Identity first**: every query's top 30 ids and scores (``==``)
  are the same both ways.
* **Then the ratio**: ms per query both ways (the scalar side ranks
  every scored document, as the engine used to), and the engine must
  be >= 5x the scalar loop.  The traced memory of the index is printed.

The graph half indexes gold reports through
``index_annotation_document`` (no NER, no ILP); the keyword half indexes
their texts into a bare ``SearchEngine``.  Each builds in a few seconds.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc

import pytest
from conftest import gold_parse, write_result

import repro.ir.ranking as ranking_module
import repro.ir.searcher as searcher_module
from repro.corpus.pubmed import build_corpus
from repro.corpus.queries import make_query_workload
from repro.ir.indexer import CreateIrIndexer
from repro.ir.searcher import CreateIrSearcher, concept_candidates
from repro.search.engine import SearchEngine
from repro.testing.oracles import bm25_scores_scalar, concept_candidates_scan

N_REPORTS = 2000
N_QUERIES = 25
TIMED_ROUNDS = 3
TOP_K = 30


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(N_REPORTS, seed=11)


def _pass_ms(candidates, indexer, concepts) -> float:
    """ms per concept of one pass over every concept."""
    start = time.perf_counter()
    for concept in concepts:
        candidates(indexer.graph, indexer.normalizer, concept)
    return 1000.0 * (time.perf_counter() - start) / len(concepts)


def _ms_per_concept(candidates, indexer, concepts) -> float:
    """Best of :data:`TIMED_ROUNDS` passes over every concept."""
    return min(
        _pass_ms(candidates, indexer, concepts) for _ in range(TIMED_ROUNDS)
    )


def _graph_search_p50_ms(searcher, parsed) -> float:
    """Median over queries of each query's best ``graph_search`` time
    over :data:`TIMED_ROUNDS` rounds."""
    best = [float("inf")] * len(parsed)
    for _ in range(TIMED_ROUNDS):
        for i, query in enumerate(parsed):
            start = time.perf_counter()
            searcher.graph_search(query)
            best[i] = min(best[i], time.perf_counter() - start)
    return 1000.0 * statistics.median(best)


def test_graph_search_candidates_at_scale(corpus, monkeypatch):
    indexer = CreateIrIndexer()
    for report in corpus:
        indexer.index_annotation_document(
            report.report_id, report.annotations
        )
    parsed = [
        gold_parse(query)
        for query in make_query_workload(corpus, n_queries=N_QUERIES, seed=12)
    ]
    concepts = [concept for query in parsed for concept in query.concepts]
    searcher = CreateIrSearcher(indexer, parser=None)

    scan_calls = []

    def counted_scan(*args):
        scan_calls.append(args[-1])
        return concept_candidates_scan(*args)

    # Identity before any timing.
    fast_details = [searcher.graph_search(query) for query in parsed]
    with monkeypatch.context() as patch:
        patch.setattr(searcher_module, "concept_candidates", counted_scan)
        scan_details = [searcher.graph_search(query) for query in parsed]
    assert len(scan_calls) >= len(parsed)
    assert fast_details == scan_details
    assert sum(map(len, fast_details)) >= len(parsed)

    scan_ms = _ms_per_concept(concept_candidates_scan, indexer, concepts)
    ranking_module.label_stems.cache_clear()
    cold_ms = _pass_ms(concept_candidates, indexer, concepts)
    fast_ms = _ms_per_concept(concept_candidates, indexer, concepts)
    ratio = scan_ms / fast_ms
    fast_p50 = _graph_search_p50_ms(searcher, parsed)
    with monkeypatch.context() as patch:
        patch.setattr(
            searcher_module, "concept_candidates", concept_candidates_scan
        )
        scan_p50 = _graph_search_p50_ms(searcher, parsed)

    nodes = list(indexer.graph.nodes())
    distinct = {
        (node.get("entityType"), node.get("label")) for node in nodes
    }
    lines = [
        f"Graph search candidates ({indexer.n_reports} reports, "
        f"{len(nodes)} nodes, {len(distinct)} distinct (type, label); "
        f"{len(parsed)} queries, {len(concepts)} concepts)",
        f"{'candidates':<34}{'ms/concept':>12}{'speedup':>10}"
        f"{'graph_search p50 ms':>22}",
        f"{'scan (per node)':<34}{scan_ms:>12.2f}{1.0:>9.2f}x"
        f"{scan_p50:>22.2f}",
        f"{'concept_candidates, cold memo':<34}{cold_ms:>12.2f}"
        f"{scan_ms / cold_ms:>9.2f}x",
        f"{'concept_candidates (per label)':<34}{fast_ms:>12.2f}"
        f"{ratio:>9.2f}x{fast_p50:>22.2f}",
    ]
    write_result("bench_ir_scale", lines)

    assert ratio >= 65.0, (
        f"concept_candidates only {ratio:.2f}x the scan "
        f"({fast_ms:.2f} vs {scan_ms:.2f} ms per concept)"
    )


def _scalar_search(engine: SearchEngine, text: str, size: int) -> list:
    """``(doc_id, score)`` top ``size``: the scalar loop's scores, every
    scored document sorted by ``(-score, str(doc_id))``."""
    scores = bm25_scores_scalar(engine._index, engine._analyzer.terms(text))
    ranked = sorted(
        ((engine._ids_by_ordinal[ordinal], score)
         for ordinal, score in scores.items()),
        key=lambda item: (-item[1], str(item[0])),
    )
    return ranked[:size]


def _engine_search(engine: SearchEngine, text: str, size: int) -> list:
    return [(hit.doc_id, hit.score) for hit in engine.search(text, size)]


def _ms_per_query(search, engine, texts) -> float:
    """Best of :data:`TIMED_ROUNDS` passes over every query."""
    best = float("inf")
    for _ in range(TIMED_ROUNDS):
        start = time.perf_counter()
        for text in texts:
            search(engine, text, TOP_K)
        best = min(best, time.perf_counter() - start)
    return 1000.0 * best / len(texts)


def test_keyword_search_at_scale(corpus):
    tracemalloc.start()
    try:
        engine = SearchEngine()
        for report in corpus:
            engine.index(report.report_id, report.text)
        index_mb = tracemalloc.get_traced_memory()[0] / 2**20
    finally:
        tracemalloc.stop()
    texts = [
        query.text
        for query in make_query_workload(corpus, n_queries=N_QUERIES, seed=12)
    ]

    # Identity before any timing.
    for text in texts:
        hits = _engine_search(engine, text, TOP_K)
        assert hits == _scalar_search(engine, text, TOP_K), text
        assert len(hits) == TOP_K

    scalar_ms = _ms_per_query(_scalar_search, engine, texts)
    engine_ms = _ms_per_query(_engine_search, engine, texts)
    ratio = scalar_ms / engine_ms

    lines = [
        f"Keyword search ({engine.n_documents} reports, traced index "
        f"{index_mb:.1f} MB; {len(texts)} queries, top {TOP_K})",
        f"{'scoring':<34}{'ms/query':>12}{'speedup':>10}",
        f"{'scalar loop (dict per posting)':<34}{scalar_ms:>12.2f}"
        f"{1.0:>9.2f}x",
        f"{'SearchEngine.search (numpy)':<34}{engine_ms:>12.2f}"
        f"{ratio:>9.2f}x",
    ]
    write_result("bench_ir_scale keyword", lines)

    assert ratio >= 5.0, (
        f"SearchEngine.search only {ratio:.2f}x the scalar loop "
        f"({engine_ms:.2f} vs {scalar_ms:.2f} ms per query)"
    )
