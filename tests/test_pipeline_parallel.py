"""Fault-isolated staged ingestion: determinism, dead letters, retries."""

import os
import threading

import pytest

from repro.corpus.generator import CaseReportGenerator
from repro.crawler.repository import Page, SyntheticPubMed
from repro.exceptions import ModelError, StageFailure
from repro.grobid.service import GrobidService
from repro.pipeline import (
    CreatePipeline,
    _init_ingest_worker,
    _parse_extract,
)


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
        "stored": len(pipeline.store.collection("reports")),
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


class _RecordingExtractor:
    """Delegates to a trained extractor, noting each doc id it extracts
    in whichever process runs it."""

    def __init__(self, inner):
        self.inner = inner
        self.ner = inner.ner
        self.temporal = inner.temporal
        self.seen = []

    def extract(self, doc_id, text):
        self.seen.append(doc_id)
        return self.inner.extract(doc_id, text)


def _hits(pipeline, reports):
    hits = []
    for report in reports:
        symptom = report.annotations.spans_with_label("Sign_symptom")
        if symptom:
            hits.append(
                [
                    (r.doc_id, r.engine)
                    for r in pipeline.searcher.search(symptom[0].text, size=8)
                ]
            )
    return hits


class ExplodingGrobid(GrobidService):
    """Module-level so it pickles into a pool worker under any start
    method."""

    def process(self, content):
        raise RuntimeError("unexpected infrastructure failure")


class TestDeterminism:
    def test_parallel_matches_serial(self, demo_system):
        trained, _ = demo_system
        site_a, reports = _make_site()
        site_b, _ = _make_site()

        serial = _fresh_pipeline(trained.extractor, workers=1)
        serial_stats = serial.ingest_from_site(site_a)
        parallel = _fresh_pipeline(trained.extractor, workers=2)
        parallel_stats = parallel.ingest_from_site(site_b)

        assert serial_stats.as_dict() == parallel_stats.as_dict()
        assert _index_fingerprint(serial) == _index_fingerprint(parallel)
        assert _hits(serial, reports) == _hits(parallel, reports)

    def test_default_workers_is_usable_cores(self, demo_system):
        trained, _ = demo_system
        try:
            usable = len(os.sched_getaffinity(0))
        except AttributeError:
            usable = os.cpu_count()
        assert _fresh_pipeline(trained.extractor).workers == usable

    def test_live_thread_ingest_runs_inline_and_matches_serial(
        self, demo_system
    ):
        trained, _ = demo_system
        site_a, reports = _make_site()
        site_b, _ = _make_site()

        serial = _fresh_pipeline(trained.extractor, workers=1)
        serial_stats = serial.ingest_from_site(site_a)
        recording = _RecordingExtractor(trained.extractor)
        threaded = _fresh_pipeline(recording, workers=2)
        stop = threading.Event()
        idle = threading.Thread(target=stop.wait)
        idle.start()
        try:
            threaded_stats = threaded.ingest_from_site(site_b)
        finally:
            stop.set()
            idle.join(timeout=10)
        assert not idle.is_alive()

        # Every extraction ran in this process: no worker was forked
        # beside the live thread, and nothing was pickled into one.
        assert sorted(recording.seen) == sorted(r.pmid for r in reports)
        assert serial_stats.as_dict() == threaded_stats.as_dict()
        assert _index_fingerprint(serial) == _index_fingerprint(threaded)
        assert _hits(serial, reports) == _hits(threaded, reports)


class TestFaultIsolation:
    def test_extraction_failure_dead_letters_without_abort(self, demo_system):
        trained, _ = demo_system
        site, reports = _make_site()
        victim = reports[2].pmid
        extractor = _SelectiveFailExtractor(trained.extractor, {victim})
        pipeline = _fresh_pipeline(extractor, workers=2)

        stats = pipeline.ingest_from_site(site)

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
        pipeline = _fresh_pipeline(trained.extractor, workers=2)

        stats = pipeline.ingest_from_site(site)

        assert stats.parse_failures == 1
        assert stats.parse_failed_ids == [victim]
        letters = [d for d in stats.dead_letters if d.stage == "parse"]
        assert len(letters) == 1
        assert letters[0].doc_id == victim
        assert letters[0].error_type == "ParseError"
        assert stats.indexed == len(reports) - 1

    def test_unterminated_xml_declaration_is_a_parse_failure(
        self, demo_system
    ):
        # A crawled page opening "<?xml" with no "?>" is dead-lettered
        # like any other unparseable page; it must not abort the ingest.
        trained, _ = demo_system
        _init_ingest_worker(GrobidService(), trained.extractor, 0)
        with pytest.raises(StageFailure) as failure:
            _parse_extract(("bad-xml", "<?xml", "xml"))
        assert failure.value.stage == "parse"
        assert failure.value.error_type == "ParseError"

    def test_unexpected_parse_exception_propagates(self, demo_system):
        trained, _ = demo_system
        site, _ = _make_site(n=3)
        pipeline = _fresh_pipeline(
            trained.extractor, grobid=ExplodingGrobid(), workers=1
        )
        with pytest.raises(RuntimeError):
            pipeline.ingest_from_site(site)

    def test_unexpected_exception_propagates_from_a_worker(self, demo_system):
        trained, _ = demo_system
        site, _ = _make_site(n=3)
        pipeline = _fresh_pipeline(
            trained.extractor, grobid=ExplodingGrobid(), workers=2
        )
        with pytest.raises(RuntimeError, match="infrastructure"):
            pipeline.ingest_from_site(site)


class TestTransientRetry:
    def test_transient_grobid_errors_are_retried(self, demo_system):
        trained, _ = demo_system
        site, reports = _make_site()
        grobid = GrobidService(transient_error_rate=1.0, seed=3)
        pipeline = _fresh_pipeline(
            trained.extractor, grobid=grobid, parse_retries=2, workers=2
        )

        stats = pipeline.ingest_from_site(site)

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
        pipeline = _fresh_pipeline(trained.extractor, workers=2)

        stats = pipeline.ingest_from_site(site)

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
