"""Cohort evaluation: composed engine vs. the brute-force evaluator.

Generates a seeded gold corpus, registers it into the full production
stack (docstore + dual index) and into the per-document oracle, and
evaluates a three-criterion cohort — a selective temporal constraint,
an entity constraint, and a metadata value filter — both ways.

Membership is asserted **bit-identical** before anything is timed: the
engine's cardinality-ordered short-circuit intersection must not win by
answering a different question.  The engine's advantage is structural —
it touches each criterion's backing index once, while the oracle runs
every criterion against every report (per-document exhaustive pattern
enumeration, linear-scan BM25, full closure recomputation).

The acceptance bar is the in-run ratio: engine ≥ 2x the brute-force
evaluator timed in the same process.  ``BENCH_COHORT_DOCS`` overrides
the corpus size (CI runs 400 reports, nightly 2000).
"""

from __future__ import annotations

import os
import time

from conftest import write_result

from repro.cohort import (
    CohortDefinition,
    CohortEngine,
    EntityCriterion,
    MentionSpec,
    TemporalCriterion,
    ValueCriterion,
)
from repro.corpus.generator import CaseReportGenerator
from repro.docstore.store import DocumentStore
from repro.ir.indexer import CreateIrIndexer
from repro.testing.cohort_oracle import BruteForceCohortEvaluator

N_DOCS = int(os.environ.get("BENCH_COHORT_DOCS", "400"))
TIMED_ROUNDS = 3


def _definition() -> CohortDefinition:
    return CohortDefinition(
        name="bench",
        inclusion=[
            TemporalCriterion(
                "BEFORE",
                MentionSpec(entity_type="Sign_symptom"),
                MentionSpec(entity_type="Medication"),
            ),
            EntityCriterion(MentionSpec(entity_type="Disease_disorder")),
            ValueCriterion("year", "gte", 2000),
        ],
        exclusion=[
            EntityCriterion(
                MentionSpec(entity_type="Sign_symptom", negated=True)
            )
        ],
    )


def test_cohort_engine_vs_brute_force():
    generator = CaseReportGenerator(seed=23)
    store = DocumentStore()
    indexer = CreateIrIndexer()
    oracle = BruteForceCohortEvaluator()
    annotations = {}
    for index in range(N_DOCS):
        report = generator.generate(f"bench-{index:05d}")
        document = report.to_document()
        store.collection("reports").insert_one(document)
        indexer.index_annotation_document(
            document["_id"], document["title"], report.annotations
        )
        annotations[document["_id"]] = report.annotations
        oracle.add_report(
            document["_id"], document["title"], document, report.annotations
        )
    engine = CohortEngine(
        store, indexer.graph, indexer.engine, annotations.get
    )
    definition = _definition()

    # Bit-identical membership before any timing.
    engine_members = engine.evaluate(definition).members
    oracle_members = oracle.evaluate(definition)
    assert engine_members == oracle_members, (
        f"engine and oracle disagree: {len(engine_members)} vs "
        f"{len(oracle_members)} members"
    )
    assert engine_members, "benchmark cohort is empty; corpus too small"

    start = time.perf_counter()
    for _ in range(TIMED_ROUNDS):
        engine.evaluate(definition)
    engine_s = (time.perf_counter() - start) / TIMED_ROUNDS

    start = time.perf_counter()
    oracle.evaluate(definition)
    oracle_s = time.perf_counter() - start

    speedup = oracle_s / engine_s
    lines = [
        f"Cohort evaluation ({N_DOCS} reports, "
        f"{len(engine_members)} members)",
        f"{'evaluator':<28}{'s/eval':>12}{'speedup':>10}",
        f"{'brute-force per-document':<28}{oracle_s:>12.4f}{1.0:>9.2f}x",
        f"{'cohort engine':<28}{engine_s:>12.4f}{speedup:>9.2f}x",
    ]
    write_result("bench_cohort", lines)

    assert speedup >= 2.0, (
        f"cohort engine only {speedup:.2f}x the brute-force evaluator "
        f"({engine_s:.4f}s vs {oracle_s:.4f}s per evaluation)"
    )
