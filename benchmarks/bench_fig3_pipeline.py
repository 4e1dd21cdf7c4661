"""Figures 2/3: the end-to-end architecture.

Measures the full crawl -> Grobid parse -> extraction -> dual-index ->
serve flow over a synthetic PubMed site, reporting per-stage counters
(the reproduction of the architecture diagram as running code).
"""

from conftest import write_result

from repro.corpus.pubmed import build_corpus
from repro.crawler.repository import SyntheticPubMed
from repro.pipeline import CreatePipeline

N_REPORTS = 40


def test_fig3_end_to_end_pipeline(benchmark, trained_extractor):
    reports = build_corpus(N_REPORTS, seed=33)

    def run():
        pipeline = CreatePipeline(extractor=trained_extractor)
        site = SyntheticPubMed(reports, pdf_fraction=0.5, seed=33)
        pipeline.ingest_from_site(site)
        return pipeline

    pipeline = benchmark.pedantic(run, rounds=1, iterations=1)
    stats = pipeline.stats

    parse_extract, index_stage = (
        pipeline.metrics.timer_stats(f"pipeline.{stage}_seconds").total
        for stage in ("parse_extract", "index_stage")
    )
    search = pipeline.app.handle(
        "GET", "/search", params={"q": "chest pain and dyspnea", "size": 5}
    )
    lines = [
        f"Figure 3 — end-to-end pipeline over {N_REPORTS} publications",
        f"crawled:        {stats.crawled}",
        f"parsed:         {stats.parsed} (failures: {stats.parse_failures})",
        f"extracted:      {stats.extracted}",
        f"indexed:        {stats.indexed}",
        f"graph nodes:    {stats.graph_nodes}",
        f"graph edges:    {stats.graph_edges}",
        f"workers:        {pipeline.workers}",
        f"parse_extract:  {parse_extract:.3f} s",
        f"index_stage:    {index_stage:.3f} s",
        f"search smoke:   {len(search.body['results'])} results, "
        f"engines={sorted({r['engine'] for r in search.body['results']})}",
    ]
    write_result("fig3_pipeline", lines)

    assert stats.indexed == N_REPORTS
    assert stats.parse_failures == 0
    assert search.ok and search.body["results"]
