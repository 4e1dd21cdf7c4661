"""Integration tests: the full crawl->parse->extract->index->serve flow."""

import pytest

from repro.corpus.generator import CaseReportGenerator
from repro.crawler.repository import SyntheticPubMed
from repro.durability import Durable, DurabilityManager, MemFS
from repro.exceptions import PipelineError
from repro.ir import CreateIrIndexer
from repro.ner.encoding import spans_of_document
from repro.pipeline import ClinicalExtractor, CreatePipeline
from repro.search import CREATE_IR_FIELD_ANALYZERS, create_segment_ir_engine
from repro.serving import (
    ProcessShardedSegmentEngine,
    ReplicatedShardedSearchEngine,
    ShardedSearchEngine,
)


class TestClinicalExtractor:
    def test_train_requires_data(self):
        with pytest.raises(PipelineError):
            ClinicalExtractor.train([])

    def test_extraction_quality_on_held_out(self, demo_system):
        pipeline, _ = demo_system
        generator = CaseReportGenerator(seed=909)
        report = generator.generate("held-out")
        extracted = pipeline.extractor.extract("held-out", report.text)
        extracted.verify()
        gold = set(spans_of_document(report.annotations))
        predicted = set(spans_of_document(extracted))
        recall = len(gold & predicted) / len(gold)
        assert recall > 0.5

    def test_extraction_produces_relations(self, demo_system):
        pipeline, _ = demo_system
        report = CaseReportGenerator(seed=910).generate("x")
        extracted = pipeline.extractor.extract("x", report.text)
        assert extracted.relations

    def test_extracted_relations_globally_consistent(self, demo_system):
        from repro.temporal.graph import TemporalGraph
        from repro.temporal.relations import THREE_WAY_ALGEBRA

        pipeline, _ = demo_system
        report = CaseReportGenerator(seed=911).generate("y")
        extracted = pipeline.extractor.extract("y", report.text)
        graph = TemporalGraph(algebra=THREE_WAY_ALGEBRA)
        for rel in extracted.relations.values():
            if rel.label in ("BEFORE", "AFTER", "OVERLAP"):
                graph.add(rel.source, rel.target, rel.label)
        assert graph.is_consistent()


class TestPipelineRun:
    def test_stats_consistent(self, demo_system):
        pipeline, reports = demo_system
        assert pipeline.stats.crawled == len(reports)
        assert pipeline.stats.parsed == pipeline.stats.crawled
        assert pipeline.stats.indexed == pipeline.stats.extracted
        assert pipeline.stats.graph_nodes > 0

    def test_every_report_stored_and_searchable(self, demo_system):
        pipeline, reports = demo_system
        assert pipeline.store.collection("reports").count() >= len(reports)
        assert pipeline.indexer.engine.n_documents >= len(reports)

    def test_search_finds_relevant_report(self, demo_system):
        pipeline, reports = demo_system
        report = reports[0]
        symptom = report.annotations.spans_with_label("Sign_symptom")[0]
        results = pipeline.searcher.search(symptom.text, size=16)
        assert any(r.doc_id == report.pmid for r in results)

    def test_parse_failures_counted(self, demo_system):
        pipeline, _ = demo_system
        assert pipeline.stats.parse_failures == 0

    def test_fresh_pipeline_small_site(self, demo_system):
        # Re-ingesting a tiny site with the already-trained extractor.
        trained, _ = demo_system
        pipeline = CreatePipeline(extractor=trained.extractor)
        generator = CaseReportGenerator(seed=955)
        reports = [generator.generate(f"mini-{i}") for i in range(3)]
        site = SyntheticPubMed(reports, seed=1)
        stats = pipeline.ingest_from_site(site)
        assert stats.indexed == 3
        assert pipeline.app.handle("GET", "/stats").body["n_reports"] == 3


_ENGINES = {
    "segment": lambda root: create_segment_ir_engine(str(root)),
    "sharded": lambda root: ShardedSearchEngine(4, CREATE_IR_FIELD_ANALYZERS),
    "process": lambda root: ProcessShardedSegmentEngine(
        2, str(root), CREATE_IR_FIELD_ANALYZERS, mode="serial"
    ),
    "replicated": lambda root: ReplicatedShardedSearchEngine(
        2, field_analyzers=CREATE_IR_FIELD_ANALYZERS, executor_mode="serial"
    ),
}


def _observe(pipeline) -> list:
    """Everything a client can see of the index through the API."""
    bodies = [
        pipeline.app.handle(
            "GET", "/search", params={"q": query, "highlight": flag}
        ).body
        for query in ("fever and chest pain", "admitted with dyspnea")
        for flag in ("0", "1")
    ]
    stats = pipeline.app.handle("GET", "/stats").body
    keys = ("n_reports", "graph_nodes", "graph_edges", "indexer", "review")
    return bodies + [{key: stats[key] for key in keys}]


@pytest.mark.parametrize("kind", sorted(_ENGINES))
def test_injected_engine_matches_default_pipeline(demo_system, tmp_path, kind):
    """Any keyword engine injected through ``indexer=`` serves exactly
    what the default pipeline serves — before and after a DELETE, and
    after snapshot + WAL recovery into a fresh pipeline.  An engine
    recovery could not rebuild is refused together with ``durability``."""
    trained, reports = demo_system
    fs = MemFS()

    def build(durable=True):
        return CreatePipeline(
            trained.extractor,
            indexer=CreateIrIndexer(engine=_ENGINES[kind](tmp_path)),
            durability=DurabilityManager(fs) if durable else None,
        )

    if kind == "replicated":
        with pytest.raises(PipelineError, match="Replicated.* Durable"):
            build()
    default, injected = CreatePipeline(trained.extractor), build(
        durable=kind != "replicated"
    )
    for pipeline in (default, injected):
        for report in reports[:8]:
            pipeline.app.register_report(
                report.to_document(), report.annotations
            )
    assert _observe(injected) == _observe(default)
    assert any(row["highlights"] for row in _observe(default)[1]["results"])
    if injected.durability is not None:
        injected.durability.snapshot()
    victim = _observe(default)[0]["results"][0]["id"]
    for pipeline in (default, injected):
        assert pipeline.app.handle("DELETE", f"/reports/{victim}").ok
    assert _observe(injected) == _observe(default)
    if kind != "segment":
        serving = injected.app.handle("GET", "/stats").body["serving"]
        assert {"n_shards", "epochs", "cache"} <= set(serving["engine"])
    if injected.durability is not None:
        recovered = build()
        assert recovered.recover().snapshot_loaded
        assert _observe(recovered) == _observe(default)


@pytest.mark.xfail(
    strict=True,
    reason="known defect: the WAL journals four renderings of a report "
    "but not its annotation document, so CreateApplication._annotations "
    "is empty after recover() (ROADMAP item 1(d) is the fix)",
)
def test_annotations_survive_recovery(demo_system):
    """Every per-report route answers after recovery as it did live."""
    trained, reports = demo_system
    fs = MemFS()
    live = CreatePipeline(trained.extractor, durability=DurabilityManager(fs))
    doc_id = live.app.register_report(
        reports[0].to_document(), reports[0].annotations
    )
    recovered = CreatePipeline(
        trained.extractor, durability=DurabilityManager(fs)
    )
    recovered.recover()
    suffixes = ("/graph", "/ann", "/html")
    paths = [f"/reports/{doc_id}{suffix}" for suffix in suffixes]
    paths.append(f"/review/reports/{doc_id}")
    for pipeline in (live, recovered):
        statuses = {
            path: pipeline.app.handle("GET", path).status for path in paths
        }
        assert statuses == dict.fromkeys(paths, 200)
