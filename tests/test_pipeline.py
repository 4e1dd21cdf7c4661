"""Integration tests: the full crawl->parse->extract->index->serve flow."""

import pytest

from repro.annotation.model import AnnotationDocument
from repro.corpus.generator import CaseReportGenerator
from repro.crawler.repository import SyntheticPubMed
from repro.annotation.brat import parse_ann
from repro.durability import DurabilityManager, MemFS
from repro.exceptions import PipelineError, ReviewError
from repro.ir import CreateIrIndexer
from repro.ner.encoding import spans_of_document
from repro.pipeline import ClinicalExtractor, CreatePipeline
from repro.search.engine import SearchEngine


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


class _UndurableEngine:
    """A keyword engine that serves like the default one and exposes
    nothing but what the indexer and the searcher call."""

    def __init__(self):
        self._engine = SearchEngine()
        for name in ("index", "delete", "search", "highlight"):
            setattr(self, name, getattr(self._engine, name))

    epoch = property(lambda self: self._engine.epoch)
    n_documents = property(lambda self: self._engine.n_documents)


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


def test_injected_engine_matches_default_pipeline(demo_system):
    """A keyword engine injected through ``indexer=`` serves exactly
    what the default pipeline serves — before and after a DELETE, and
    after snapshot + WAL recovery into a fresh pipeline and a fresh
    engine, which derives the engine's contents from the recovered
    records."""
    trained, reports = demo_system
    fs = MemFS()

    def build():
        return CreatePipeline(
            trained.extractor,
            indexer=CreateIrIndexer(engine=_UndurableEngine()),
            durability=DurabilityManager(fs),
        )

    default, injected = CreatePipeline(trained.extractor), build()
    for pipeline in (default, injected):
        for report in reports[:8]:
            pipeline.app.register_report(
                report.to_document(), report.annotations
            )
    assert _observe(injected) == _observe(default)
    assert any(row["highlights"] for row in _observe(default)[1]["results"])
    injected.durability.snapshot()
    victim = _observe(default)[0]["results"][0]["id"]
    for pipeline in (default, injected):
        assert pipeline.app.handle("DELETE", f"/reports/{victim}").ok
    assert _observe(injected) == _observe(default)
    recovered = build()
    assert recovered.recover().snapshot_loaded
    assert _observe(recovered) == _observe(default)


def _report_views(app, doc_ids) -> dict:
    """Status and body of every per-report route, plus the cohort
    export, for ``doc_ids``."""
    views = {}
    for doc_id in doc_ids:
        for suffix in ("", "/graph", "/svg", "/timeline", "/ann", "/html"):
            path = f"/reports/{doc_id}{suffix}"
            views[path] = app.handle("GET", path)
        path = f"/review/reports/{doc_id}"
        views[path] = app.handle("GET", path)
        views[f"/review/queue?doc_id={doc_id}"] = app.handle(
            "GET", "/review/queue", params={"doc_id": doc_id, "limit": 500}
        )
        for claim in app.review.claims_of(doc_id):
            path = f"/review/claims/{claim.claim_id}"
            views[path] = app.handle("GET", path)
    views["/cohorts/any/fhir"] = app.handle("GET", "/cohorts/any/fhir")
    return {
        path: (response.status, response.body)
        for path, response in views.items()
    }


def _derived_views(app, doc_id, probe: str) -> dict:
    """What the graph and the keyword index serve about ``doc_id`` and
    the concept ``probe``: its graph, a search, completions and the
    members of the ``probe`` cohort."""
    evaluated = app.handle("POST", "/cohorts/probe/evaluate")
    return {
        "graph": app.handle("GET", f"/reports/{doc_id}/graph").body,
        "search": app.handle(
            "GET", "/search", params={"q": probe, "size": 20}
        ).body,
        "suggest": app.handle("GET", "/suggest", params={"q": probe}).body,
        "cohort": evaluated.body["members"],
    }


@pytest.mark.parametrize("snapshot", [False, True], ids=["wal", "snapshot"])
def test_annotations_survive_recovery(demo_system, snapshot):
    """Every per-report route answers after recovery as it did live —
    for a report as extracted, one whose annotations were PUT, one with
    a recorded decision, one that was deleted and one whose mention
    crosses a line break under two out-of-order ids — and the FHIR
    export keeps its span provenance.  A PUT re-indexes its report:
    ``/graph``, ``/search``, ``/suggest`` and an entity cohort criterion
    answer, live and recovered, as if the curator's annotations had
    been registered in the first place."""
    from repro.cohort.fhir import bundle_provenance

    trained, reports = demo_system
    fs = MemFS()
    live = CreatePipeline(trained.extractor, durability=DurabilityManager(fs))
    app = live.app
    created = app.handle(
        "POST",
        "/cohorts",
        body={
            "name": "any",
            "inclusion": [{"kind": "entity", "entity_type": "Sign_symptom"}],
        },
    )
    assert created.status == 201
    plain, edited, decided, deleted = (
        app.register_report(report.to_document(), report.annotations)
        for report in reports[:4]
    )
    # PUT: keep the first three spans under ids of the curator's choosing,
    # dropping a positive mention no kept span names.
    extracted = app.review.annotations(edited)
    kept = extracted.spans_sorted()[:3]
    dropped = next(
        tb
        for tb in extracted.spans_sorted()[3:]
        if not extracted.is_negated(tb.ann_id)
        and tb.text.lower() not in {k.text.lower() for k in kept}
    )
    probe_cohort = {
        "name": "probe",
        "inclusion": [
            {
                "kind": "entity",
                "entity_type": dropped.label,
                "value": dropped.text,
            }
        ],
    }
    assert app.handle("POST", "/cohorts", body=probe_cohort).status == 201
    before_put = _derived_views(app, edited, dropped.text)
    assert edited in before_put["cohort"]
    standoff = "".join(
        f"T{40 + k}\t{tb.label} {tb.start} {tb.end}\t{tb.text}\n"
        for k, tb in enumerate(kept)
    )
    put = app.handle("PUT", f"/reports/{edited}/ann", body=standoff)
    assert (put.status, put.body["spans"]) == (200, 3)
    claim = app.review.claims_of(decided)[0]
    verdict = app.handle(
        "POST",
        f"/review/claims/{claim.claim_id}/decision",
        body={"reviewer": "alice", "verdict": "edit", "label": "Finding"},
    )
    assert verdict.status == 201
    assert app.handle("DELETE", f"/reports/{deleted}").ok
    # A SimPDF block keeps its line breaks, so a mention may cross one;
    # the curator then lists two spans over it, the higher id first.
    wrapped_text = "She reported chest\npain and fever."
    wrapped_ann = AnnotationDocument(doc_id="sub-1", text=wrapped_text)
    wrapped_ann.add_textbound("Sign_symptom", 13, 23)
    wrapped = app.register_report(
        {"title": "wrapped", "text": wrapped_text}, wrapped_ann
    )
    wrapped_standoff = (
        "T2\tSign_symptom 13 23\tchest pain\n"
        "T1\tDisease_disorder 13 23\tchest pain\n"
    )
    put = app.handle("PUT", f"/reports/{wrapped}/ann", body=wrapped_standoff)
    assert (put.status, put.body["spans"]) == (200, 2)
    if snapshot:
        live.durability.snapshot()

    recovered = CreatePipeline(
        trained.extractor, durability=DurabilityManager(fs)
    )
    assert recovered.recover().snapshot_loaded == snapshot
    doc_ids = (plain, edited, decided, deleted, wrapped)
    live_views = _report_views(app, doc_ids)
    assert _report_views(recovered.app, doc_ids) == live_views

    # The PUTs are served as registrations of the curated annotations.
    twin = CreatePipeline(trained.extractor)
    assert twin.app.handle("POST", "/cohorts", body=probe_cohort).ok
    for doc_id, report in zip((plain, edited, decided), reports):
        document = report.to_document()
        annotations = report.annotations
        if doc_id == edited:
            annotations = parse_ann(edited, document["text"], standoff)
        twin.app.register_report(document, annotations)
    twin.app.register_report(
        {"title": "wrapped", "text": wrapped_text},
        parse_ann("sub-1", wrapped_text, wrapped_standoff),
    )
    after_put = _derived_views(app, edited, dropped.text)
    assert after_put == _derived_views(twin.app, edited, dropped.text)
    assert _derived_views(recovered.app, edited, dropped.text) == after_put
    assert after_put != before_put
    assert edited not in after_put["cohort"]
    assert [node["label"] for node in after_put["graph"]["nodes"]] == [
        tb.text for tb in kept
    ]

    # The comparison above is not vacuous: live answers are the real ones.
    for doc_id in (plain, edited, decided):
        for suffix in ("/graph", "/ann", "/html"):
            assert live_views[f"/reports/{doc_id}{suffix}"][0] == 200
    assert live_views[f"/reports/{edited}/ann"] == (200, standoff)
    assert live_views[f"/reports/{deleted}/ann"][0] == 404
    assert [c.value for c in app.review.claims_of(wrapped)] == ["chest\npain"] * 2
    assert live_views[f"/review/reports/{deleted}"][0] == 404
    assert "verdict-edit" in live_views[f"/review/reports/{decided}"][1]
    status, bundle = _report_views(recovered.app, ())["/cohorts/any/fhir"]
    assert status == 200
    spans = bundle_provenance(bundle)
    assert {ref["reportId"] for ref in spans} >= {plain, decided}
    for ref in spans:
        text = recovered.app.review.annotations(ref["reportId"]).text
        assert text[ref["start"] : ref["end"]] == ref["text"]


def test_refused_registration_leaves_no_trace(demo_system):
    """Annotations the review queue refuses (a label with a space does
    not survive its own standoff) fail the registration before any
    store changes, live and after recovery."""
    trained, _ = demo_system
    fs = MemFS()
    live = CreatePipeline(trained.extractor, durability=DurabilityManager(fs))
    text = "Admitted with fever and cough."
    annotations = AnnotationDocument(doc_id="r1", text=text)
    annotations.add_textbound("Sign symptom", 14, 19)
    with pytest.raises(ReviewError):
        live.app.register_report(
            {"_id": "r1", "title": "fever", "text": text}, annotations
        )
    recovered = CreatePipeline(
        trained.extractor, durability=DurabilityManager(fs)
    )
    recovered.recover()
    for pipeline in (live, recovered):
        app = pipeline.app
        for path in ("/reports/r1", "/reports/r1/ann", "/reports/r1/graph"):
            assert app.handle("GET", path).status == 404
        search = app.handle("GET", "/search", params={"q": "fever"})
        assert search.body["results"] == []
        assert app.handle("GET", "/stats").body["indexer"]["n_reports"] == 0


def test_recover_refuses_a_non_empty_index(demo_system):
    """``recover()`` derives the graph and keyword index into empty
    stores; a second call, or one after a registration, would merge
    into stale state, so it raises before touching anything."""
    trained, reports = demo_system
    fs = MemFS()
    live = CreatePipeline(trained.extractor, durability=DurabilityManager(fs))
    for report in reports[:2]:
        live.app.register_report(report.to_document(), report.annotations)

    recovered = CreatePipeline(
        trained.extractor, durability=DurabilityManager(fs)
    )
    recovered.recover()
    before = _observe(recovered)
    with pytest.raises(PipelineError, match="empty"):
        recovered.recover()
    assert _observe(recovered) == before == _observe(live)

    early = CreatePipeline(
        trained.extractor, durability=DurabilityManager(MemFS())
    )
    report = reports[2]
    early.app.register_report(report.to_document(), report.annotations)
    with pytest.raises(PipelineError, match="empty"):
        early.recover()


@pytest.mark.parametrize("snapshot", [False, True], ids=["wal", "snapshot"])
def test_cohorts_survive_recovery(demo_system, snapshot):
    """A cohort defined, and one deleted, through ``handle`` is durable
    once the response acknowledges it — no later report mutation has to
    seal the docstore journal first.  With a snapshot, the delete and
    the last definition are the WAL tail behind it."""
    trained, _ = demo_system
    fs = MemFS()
    live = CreatePipeline(trained.extractor, durability=DurabilityManager(fs))
    app = live.app

    def define(name):
        body = {
            "name": name,
            "inclusion": [{"kind": "entity", "entity_type": "Sign_symptom"}],
        }
        return app.handle("POST", "/cohorts", body=body).status

    assert define("kept") == 201
    assert define("dropped") == 201
    if snapshot:
        live.durability.snapshot()
    assert app.handle("DELETE", "/cohorts/dropped").status == 200
    assert define("late") == 201

    recovered = CreatePipeline(
        trained.extractor, durability=DurabilityManager(fs)
    )
    assert recovered.recover().snapshot_loaded == snapshot
    statuses = {}
    for name in ("", "/kept", "/dropped", "/late"):
        was = app.handle("GET", f"/cohorts{name}")
        now = recovered.app.handle("GET", f"/cohorts{name}")
        assert (now.status, now.body) == (was.status, was.body)
        statuses[name] = was.status
    assert statuses == {"": 200, "/kept": 200, "/dropped": 404, "/late": 200}

