"""CREATe-IR graph search at 2,000 reports: candidates per query concept.

Graph search (Figure 6) finds, for every query concept, the nodes of
its ``entityType`` that can stand for it.  The number of such nodes
grows with the corpus; the number of distinct labels they carry grows
far slower, because reports phrase the same findings the same way.
:func:`repro.ir.searcher.concept_candidates` decides ``labels_match``
once per distinct label; :func:`repro.testing.oracles.
concept_candidates_scan` decides it for every node.

* **Identity first**: ``graph_search`` over pre-parsed Figure-6 queries
  answers the same :class:`GraphMatchDetail` lists whichever function
  supplies the candidates.
* **Then the ratio**: ms per query concept both ways, in this process,
  and the fast path must be >= 2x the scan.

The corpus is gold reports indexed through ``index_annotation_document``
(no NER, no ILP), so building it is a few seconds.
"""

from __future__ import annotations

import time

from conftest import gold_parse, write_result

import repro.ir.searcher as searcher_module
from repro.corpus.pubmed import build_corpus
from repro.corpus.queries import make_query_workload
from repro.ir.indexer import CreateIrIndexer
from repro.ir.searcher import CreateIrSearcher, concept_candidates
from repro.testing.oracles import concept_candidates_scan

N_REPORTS = 2000
N_QUERIES = 25
TIMED_ROUNDS = 3


def _ms_per_concept(candidates, indexer, concepts) -> float:
    """Best of :data:`TIMED_ROUNDS` passes over every concept."""
    best = float("inf")
    for _ in range(TIMED_ROUNDS):
        start = time.perf_counter()
        for concept in concepts:
            candidates(indexer.graph, indexer.normalizer, concept)
        best = min(best, time.perf_counter() - start)
    return 1000.0 * best / len(concepts)


def test_graph_search_candidates_at_scale(monkeypatch):
    corpus = build_corpus(N_REPORTS, seed=11)
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

    # Identity before any timing.
    fast_details = [searcher.graph_search(query) for query in parsed]
    with monkeypatch.context() as patch:
        patch.setattr(
            searcher_module, "concept_candidates", concept_candidates_scan
        )
        scan_details = [searcher.graph_search(query) for query in parsed]
    assert fast_details == scan_details
    assert sum(map(len, fast_details)) >= len(parsed)

    scan_ms = _ms_per_concept(concept_candidates_scan, indexer, concepts)
    fast_ms = _ms_per_concept(concept_candidates, indexer, concepts)
    ratio = scan_ms / fast_ms

    nodes = list(indexer.graph.nodes())
    distinct = {
        (node.get("entityType"), node.get("label")) for node in nodes
    }
    lines = [
        f"Graph search candidates ({indexer.n_reports} reports, "
        f"{len(nodes)} nodes, {len(distinct)} distinct (type, label); "
        f"{len(parsed)} queries, {len(concepts)} concepts)",
        f"{'candidates':<34}{'ms/concept':>12}{'speedup':>10}",
        f"{'scan (labels_match per node)':<34}{scan_ms:>12.2f}{1.0:>9.2f}x",
        f"{'concept_candidates (per label)':<34}{fast_ms:>12.2f}"
        f"{ratio:>9.2f}x",
    ]
    write_result("bench_ir_scale", lines)

    assert ratio >= 2.0, (
        f"concept_candidates only {ratio:.2f}x the scan "
        f"({fast_ms:.2f} vs {scan_ms:.2f} ms per concept)"
    )
