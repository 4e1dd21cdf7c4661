"""Recovery throughput: documents per second replayed from the WAL.

Measures cold-start recovery of all three stores (docstore, graph,
keyword index) in two shapes: pure WAL replay (no snapshot, every
record re-applied) and snapshot + short WAL tail (the steady state
with ``snapshot_every`` enabled).  Re-analysis of document text for
the inverted index dominates, so recovery rate tracks indexing rate.
"""

from __future__ import annotations

import shutil
import tempfile
import time

from conftest import write_result

from repro.docstore.store import DocumentStore
from repro.durability import DurabilityManager, OsFileSystem
from repro.graphdb.graph import PropertyGraph
from repro.search.engine import SearchEngine

N_DOCS = 300
SNAPSHOT_EVERY = 256


def _attach(manager):
    store, graph, engine = DocumentStore(), PropertyGraph(), SearchEngine()
    manager.attach("docstore", store)
    manager.attach("graph", graph)
    manager.attach("index", engine)
    return store, graph, engine


def _ingest_all(ir_corpus, fs, snapshot_every):
    manager = DurabilityManager(
        fs, group_commit=16, snapshot_every=snapshot_every
    )
    store, graph, engine = _attach(manager)
    for report in ir_corpus[:N_DOCS]:
        store.collection("reports").insert_one(
            {"_id": report.report_id, "title": report.title,
             "text": report.text}
        )
        graph.add_node(
            report.report_id, entityType="Report", label=report.title
        )
        engine.index(
            report.report_id,
            {"title": report.title, "body": report.text},
        )
        manager.commit()
    manager.flush()


def _recover(fs) -> tuple[float, int]:
    manager = DurabilityManager(fs)
    store, _graph, _engine = _attach(manager)
    start = time.perf_counter()
    report = manager.recover()
    elapsed = time.perf_counter() - start
    assert len(store.collection("reports")) == N_DOCS
    return elapsed, report.records_replayed


def test_recovery_throughput(ir_corpus):
    tmp = tempfile.mkdtemp(prefix="bench-recovery-")
    try:
        lines = [
            "recovery shape                docs/sec   records replayed"
        ]
        # Both shapes restore all N_DOCS (asserted in _recover); the
        # snapshot's job is to leave only the tail to replay.
        for label, snapshot_every, expect_replayed in (
            ("WAL replay only", None, N_DOCS),
            (f"snapshot + WAL tail", SNAPSHOT_EVERY, N_DOCS - SNAPSHOT_EVERY),
        ):
            root = tmp + f"/{snapshot_every}"
            fs = OsFileSystem(root)
            _ingest_all(ir_corpus, fs, snapshot_every)
            fs.close()
            fs2 = OsFileSystem(root)
            elapsed, replayed = _recover(fs2)
            fs2.close()
            assert replayed == expect_replayed
            lines.append(
                f"{label:<28} {N_DOCS / elapsed:>9.0f}   {replayed:>16d}"
            )
        write_result("recovery", lines)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
