"""Degraded temporal indexing is counted, not silently dropped."""

from repro.durability import DurabilityManager, MemFS
from repro.exceptions import TemporalInconsistencyError
from repro.ir.indexer import CreateIrIndexer
from repro.pipeline import CreatePipeline
from repro.temporal.graph import TemporalGraph

_SPANS = [
    ("T1", "fever", "Sign_symptom", "event"),
    ("T2", "aspirin", "Medication", "event"),
    ("T3", "discharge", "Clinical_event", "event"),
]


class TestContradictionSkips:
    def test_contradictory_edges_counted(self):
        indexer = CreateIrIndexer()
        # BEFORE(T1,T2) then AFTER(T1,T2): normalized to BEFORE(T2,T1),
        # contradicting the stored pair label.
        record = indexer.index_report(
            "doc-1",
            "t",
            "fever treated with aspirin",
            _SPANS,
            [("T1", "T2", "BEFORE"), ("T1", "T2", "AFTER")],
        )
        assert record.contradiction_skips == 1
        assert indexer.contradiction_skips == 1
        assert indexer.stats()["contradiction_skips"] == 1

    def test_clean_report_counts_nothing(self):
        indexer = CreateIrIndexer()
        record = indexer.index_report(
            "doc-1",
            "t",
            "fever treated with aspirin",
            _SPANS,
            [("T1", "T2", "BEFORE"), ("T2", "T3", "BEFORE")],
        )
        assert record.contradiction_skips == 0
        assert not record.closure_failed
        assert indexer.stats() == {
            "n_reports": 1,
            "contradiction_skips": 0,
            "closure_failures": 0,
        }


class TestClosureFailures:
    def test_closure_failure_counted(self, monkeypatch):
        indexer = CreateIrIndexer()

        def exploding_close(self, max_rounds=50):
            raise TemporalInconsistencyError("synthetic closure failure")

        monkeypatch.setattr(TemporalGraph, "close", exploding_close)
        record = indexer.index_report(
            "doc-1",
            "t",
            "fever treated with aspirin",
            _SPANS,
            [("T1", "T2", "BEFORE")],
        )
        assert record.closure_failed
        assert record.n_inferred_edges == 0
        assert indexer.closure_failures == 1
        # the explicit edge is still indexed: partial is useful, visible
        assert record.n_explicit_edges == 1

    def test_accumulates_across_reports(self, monkeypatch):
        indexer = CreateIrIndexer()
        monkeypatch.setattr(
            TemporalGraph,
            "close",
            lambda self, max_rounds=50: (_ for _ in ()).throw(
                TemporalInconsistencyError("boom")
            ),
        )
        for i in range(3):
            indexer.index_report(
                f"doc-{i}",
                "t",
                "fever treated with aspirin",
                _SPANS,
                [("T1", "T2", "BEFORE")],
            )
        assert indexer.closure_failures == 3
        assert indexer.stats()["closure_failures"] == 3


def test_report_accounting_tracks_stores_after_delete_and_recovery(
    demo_system,
):
    """``n_reports`` / ``report_stats`` read the stores, so DELETE (which
    never passes through ``index_report``) and recovery keep them true."""
    trained, reports = demo_system
    fs = MemFS()
    pipeline, recovered = (
        CreatePipeline(trained.extractor, durability=DurabilityManager(fs))
        for _ in range(2)
    )
    ids = [
        pipeline.app.register_report(report.to_document(), report.annotations)
        for report in reports[:6]
    ]
    assert pipeline.app.handle("DELETE", f"/reports/{ids[0]}").ok
    recovered.recover()
    for system in (pipeline, recovered):
        stats = system.app.handle("GET", "/stats").body
        assert stats["indexer"]["n_reports"] == stats["n_reports"] == 5
        assert system.indexer.report_stats(ids[0]) is None
        record = system.indexer.report_stats(ids[1])
        assert record.n_nodes == len(reports[1].annotations.textbounds)
        assert record.n_explicit_edges > 0
