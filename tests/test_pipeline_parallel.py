"""Fault-isolated staged ingestion: determinism, dead letters, retries."""

import pytest

from repro.corpus.generator import CaseReportGenerator
from repro.crawler.repository import Page, SyntheticPubMed
from repro.exceptions import ModelError
from repro.grobid.service import GrobidService
from repro.pipeline import CreatePipeline


def _make_site(n=6, seed=5):
    generator = CaseReportGenerator(seed=seed)
    reports = [generator.generate(f"par-{i:03d}") for i in range(n)]
    return SyntheticPubMed(reports, seed=seed), reports


def _fresh_pipeline(extractor, **kwargs):
    return CreatePipeline(extractor=extractor, **kwargs)


def _index_fingerprint(pipeline):
    graph = pipeline.indexer.graph
    return {
        "nodes": graph.n_nodes,
        "edges": graph.n_edges,
        "docs": pipeline.indexer.engine.n_documents,
        "stored": pipeline.store.collection("reports").count(),
    }


class _SelectiveFailExtractor:
    """Delegates to a trained extractor, exploding for chosen doc ids."""

    def __init__(self, inner, fail_ids):
        self.inner = inner
        self.fail_ids = set(fail_ids)
        self.ner = inner.ner
        self.temporal = inner.temporal

    def extract(self, doc_id, text):
        if doc_id in self.fail_ids:
            raise ModelError(f"synthetic extraction failure for {doc_id}")
        return self.inner.extract(doc_id, text)


class TestDeterminism:
    def test_parallel_matches_serial(self, demo_system):
        trained, _ = demo_system
        site_a, reports = _make_site()
        site_b, _ = _make_site()

        serial = _fresh_pipeline(trained.extractor)
        serial_stats = serial.ingest_from_site(site_a, workers=1)
        parallel = _fresh_pipeline(trained.extractor)
        parallel_stats = parallel.ingest_from_site(site_b, workers=4)

        assert serial_stats.as_dict() == parallel_stats.as_dict()
        assert _index_fingerprint(serial) == _index_fingerprint(parallel)

        for report in reports:
            symptom = report.annotations.spans_with_label("Sign_symptom")
            if not symptom:
                continue
            query = symptom[0].text
            serial_hits = [
                (r.doc_id, r.engine)
                for r in serial.searcher.search(query, size=8)
            ]
            parallel_hits = [
                (r.doc_id, r.engine)
                for r in parallel.searcher.search(query, size=8)
            ]
            assert serial_hits == parallel_hits


class TestFaultIsolation:
    def test_extraction_failure_dead_letters_without_abort(self, demo_system):
        trained, _ = demo_system
        site, reports = _make_site()
        victim = reports[2].pmid
        extractor = _SelectiveFailExtractor(trained.extractor, {victim})
        pipeline = _fresh_pipeline(extractor)

        stats = pipeline.ingest_from_site(site, workers=3)

        assert stats.extract_failures == 1
        assert stats.indexed == len(reports) - 1
        assert stats.parsed == len(reports)  # parse had succeeded
        letters = [d for d in stats.dead_letters if d.stage == "extract"]
        assert len(letters) == 1
        assert letters[0].doc_id == victim
        assert letters[0].error_type == "ModelError"
        # every other document is searchable
        assert pipeline.indexer.engine.n_documents == len(reports) - 1
        assert pipeline.store.collection("reports").get(victim) is None

    def test_parse_failure_records_doc_id(self, demo_system):
        trained, _ = demo_system
        site, reports = _make_site()
        victim = reports[1].pmid
        url = f"pubmed://article/{victim}"
        site._pages[url] = Page(url, "pdf", "not a publication at all")
        pipeline = _fresh_pipeline(trained.extractor)

        stats = pipeline.ingest_from_site(site, workers=2)

        assert stats.parse_failures == 1
        assert stats.parse_failed_ids == [victim]
        letters = [d for d in stats.dead_letters if d.stage == "parse"]
        assert len(letters) == 1
        assert letters[0].doc_id == victim
        assert letters[0].error_type == "ParseError"
        assert stats.indexed == len(reports) - 1

    def test_unexpected_parse_exception_propagates(self, demo_system):
        trained, _ = demo_system
        site, _ = _make_site(n=3)

        class ExplodingGrobid(GrobidService):
            def process(self, content):
                raise RuntimeError("unexpected infrastructure failure")

        pipeline = _fresh_pipeline(trained.extractor, grobid=ExplodingGrobid())
        with pytest.raises(RuntimeError):
            pipeline.ingest_from_site(site)


class TestTransientRetry:
    def test_transient_grobid_errors_are_retried(self, demo_system):
        trained, _ = demo_system
        site, reports = _make_site()
        grobid = GrobidService(transient_error_rate=1.0, seed=3)
        pipeline = _fresh_pipeline(
            trained.extractor, grobid=grobid, parse_retries=2
        )

        stats = pipeline.ingest_from_site(site, workers=2)

        assert stats.parse_failures == 0
        assert stats.parsed == len(reports)
        assert stats.parse_retries == len(reports)
        assert stats.indexed == len(reports)

    def test_exhausted_retries_dead_letter(self, demo_system):
        trained, _ = demo_system
        site, reports = _make_site()

        class AlwaysDownGrobid(GrobidService):
            def process(self, content):
                from repro.exceptions import TransientParseError

                raise TransientParseError("service down")

        pipeline = _fresh_pipeline(
            trained.extractor, grobid=AlwaysDownGrobid(), parse_retries=1
        )
        stats = pipeline.ingest_from_site(site)

        assert stats.parse_failures == len(reports)
        assert stats.indexed == 0
        assert all(d.stage == "parse" for d in stats.dead_letters)
        assert all(d.attempts == 2 for d in stats.dead_letters)
        assert all(
            d.error_type == "TransientParseError" for d in stats.dead_letters
        )


class TestDocIdCollisions:
    def test_colliding_url_segments_disambiguated(self, demo_system):
        trained, _ = demo_system
        site, reports = _make_site(n=4)
        # A mirror URL whose final segment collides with an existing pmid.
        victim = reports[0].pmid
        original = site._pages[f"pubmed://article/{victim}"]
        mirror_url = f"pubmed://mirror/{victim}"
        site._pages[mirror_url] = Page(
            mirror_url, original.content_type, original.body
        )
        listing_url = site.seed_urls()[0]
        listing = site._pages[listing_url]
        site._pages[listing_url] = Page(
            listing.url,
            "listing",
            listing.body,
            listing.links + (mirror_url,),
        )
        pipeline = _fresh_pipeline(trained.extractor)

        stats = pipeline.ingest_from_site(site, workers=2)

        assert stats.id_collisions == 1
        assert stats.indexed == len(reports) + 1
        reports_coll = pipeline.store.collection("reports")
        assert reports_coll.get(victim) is not None
        assert reports_coll.get(f"{victim}~2") is not None


class TestStatsEndpoint:
    def test_stats_surfaces_runtime_metrics(self, demo_system):
        pipeline, _ = demo_system
        pipeline.searcher.search("fever", size=3)
        body = pipeline.app.handle("GET", "/stats").body

        assert body["pipeline"]["crawled"] == pipeline.stats.crawled
        assert body["pipeline"]["dead_letters"] == []
        assert body["indexer"]["n_reports"] == pipeline.indexer.n_reports
        counters = body["metrics"]["counters"]
        assert counters["pipeline.crawled"] == pipeline.stats.crawled
        assert counters["ir.searches"] >= 1
        assert counters["engine.searches"] >= 1
        timers = body["metrics"]["timers"]
        assert "pipeline.extract_seconds" in timers
        assert "ir.search_seconds" in timers
        assert timers["pipeline.extract_seconds"]["count"] >= 1

    def test_ingest_records_stage_timers(self, demo_system):
        trained, _ = demo_system
        pipeline = _fresh_pipeline(trained.extractor)
        stages = ("crawl", "parse_extract", "index_stage")
        for ingests in (1, 2):
            site, _ = _make_site(n=3, seed=ingests)
            pipeline.ingest_from_site(site)
            timers = pipeline.app.handle("GET", "/stats").body["metrics"][
                "timers"
            ]
            whole = timers["pipeline.ingest_seconds"]
            parts = [timers[f"pipeline.{stage}_seconds"] for stage in stages]
            assert [t["count"] for t in (whole, *parts)] == [ingests] * 4
            # The stages run one after another inside the ingest timer.
            assert sum(t["total"] for t in parts) <= whole["total"] + 1e-5
