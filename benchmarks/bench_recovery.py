"""Recovery throughput: reports per second brought back by ``recover()``.

``CreatePipeline.recover()`` restores the two record stores (docstore
and review queue) from snapshot + WAL, then derives every report's
graph nodes, edges and keyword entry from them.  Measured on 300 gold
reports registered through ``register_report``, in two shapes: pure
WAL replay (no snapshot, every record re-applied) and snapshot + short
WAL tail (the steady state with ``snapshot_every`` enabled).  Both
shapes derive all 300 reports, so derivation — NER-free indexing at
roughly the live registration rate — dominates either way; the
snapshot only shortens the replay.

Identity first: the recovered pipeline answers Figure-6 ``/search``
queries exactly as the live one.
"""

from __future__ import annotations

import shutil
import tempfile
import time

from conftest import write_result

from repro.corpus.queries import make_query_workload
from repro.durability import DurabilityManager, OsFileSystem
from repro.pipeline import CreatePipeline

N_DOCS = 300
SNAPSHOT_EVERY = 256
N_QUERIES = 12


def _searches(pipeline, queries) -> list:
    return [
        pipeline.app.handle("GET", "/search", params={"q": query}).body
        for query in queries
    ]


def test_recovery_throughput(ir_corpus, trained_extractor):
    reports = ir_corpus[:N_DOCS]
    queries = list(
        dict.fromkeys(
            query.text
            for query in make_query_workload(reports, n_queries=30, seed=5)
        )
    )[:N_QUERIES]
    tmp = tempfile.mkdtemp(prefix="bench-recovery-")
    try:
        lines = [
            "recovery shape                docs/sec   records replayed"
        ]
        for label, snapshot_every, expect_replayed in (
            ("WAL replay only", None, N_DOCS),
            ("snapshot + WAL tail", SNAPSHOT_EVERY, N_DOCS - SNAPSHOT_EVERY),
        ):
            root = f"{tmp}/{snapshot_every}"
            fs = OsFileSystem(root)
            live = CreatePipeline(
                trained_extractor,
                durability=DurabilityManager(
                    fs, group_commit=16, snapshot_every=snapshot_every
                ),
            )
            for report in reports:
                live.app.register_report(
                    report.to_document(), report.annotations
                )
            live.durability.flush()
            fs.close()

            fs = OsFileSystem(root)
            recovered = CreatePipeline(
                trained_extractor, durability=DurabilityManager(fs)
            )
            start = time.perf_counter()
            replayed = recovered.recover().records_replayed
            elapsed = time.perf_counter() - start
            fs.close()
            assert replayed == expect_replayed
            assert _searches(recovered, queries) == _searches(live, queries)
            lines.append(
                f"{label:<28} {N_DOCS / elapsed:>9.0f}   {replayed:>16d}"
            )
        write_result("recovery", lines)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
