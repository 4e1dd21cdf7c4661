"""Tests for the cohort subsystem: model, engine, oracle, API, FHIR."""

import json

import pytest

import repro.durability
from repro.api.app import CreateApplication
from repro.cohort import (
    CohortDefinition,
    CohortEngine,
    EntityCriterion,
    GraphCriterion,
    MentionSpec,
    TemporalCriterion,
    TextCriterion,
    ValueCriterion,
    bundle_provenance,
    criterion_from_json,
    export_fhir_bundle,
    parse_bundle,
)
from repro.corpus.generator import CaseReportGenerator
from repro.docstore.store import DocumentStore
from repro.exceptions import CohortError
from repro.ir.indexer import CreateIrIndexer
from repro.ir.searcher import CreateIrSearcher
from repro.testing.cohort import check_cohort_case, gen_cohort_case
from repro.testing.cohort_oracle import BruteForceCohortEvaluator
from repro.testing.rng import case_rng


def _build_app(n_docs=10, seed=5):
    indexer = CreateIrIndexer()
    app = CreateApplication(
        store=DocumentStore(),
        indexer=indexer,
        searcher=CreateIrSearcher(indexer),
    )
    generator = CaseReportGenerator(seed=seed)
    reports = [generator.generate(f"r{i:03d}") for i in range(n_docs)]
    for report in reports:
        app.register_report(report.to_document(), annotations=report.annotations)
    return app, reports


def _engine_of(app):
    return CohortEngine(
        app.store,
        app.indexer.graph,
        app.indexer.engine,
        app.review.annotations,
    )


class TestModel:
    def test_round_trip_through_json(self):
        definition = CohortDefinition(
            name="c",
            description="demo",
            inclusion=[
                EntityCriterion(MentionSpec(entity_type="Medication")),
                TemporalCriterion(
                    "BEFORE",
                    MentionSpec(entity_type="Sign_symptom", value="fever"),
                    MentionSpec(entity_type="Medication", negated=None),
                ),
                GraphCriterion(
                    nodes=(("x", (("entityType", "Medication"),)),),
                ),
                TextCriterion("chest pain"),
            ],
            exclusion=[ValueCriterion("year", "between", [1990, 2000])],
        )
        reparsed = CohortDefinition.from_json(
            json.loads(json.dumps(definition.to_json()))
        )
        assert reparsed.to_json() == definition.to_json()

    def test_mention_spec_matching(self):
        spec = MentionSpec(entity_type="Medication", value="Aspirin")
        assert spec.matches("Medication", "aspirin", False)
        assert not spec.matches("Medication", "aspirin", True)
        assert not spec.matches("Sign_symptom", "aspirin", False)
        either = MentionSpec(entity_type="Medication", negated=None)
        assert either.matches("Medication", "x", True)
        assert either.matches("Medication", "x", False)

    @pytest.mark.parametrize(
        "body",
        [
            {"kind": "nope"},
            {"kind": "temporal", "relation": "DURING", "a": {}, "b": {}},
            {"kind": "value", "field": "year", "op": "like", "value": 1},
            {"kind": "value", "field": "year", "op": "between", "value": [1]},
            {"kind": "text", "query": "  "},
            {"kind": "graph", "nodes": []},
            {"kind": "graph", "nodes": [["x", {}]], "edges": [["x", "y", None, True]]},
            {"kind": "entity", "negated": "yes"},
            {"kind": "value", "field": "area", "op": "gte", "value": None},
            {"kind": "value", "field": "sections", "op": "lte", "value": {"a": 1}},
            {"kind": "value", "field": "year", "op": "between", "value": [1, [2]]},
        ],
    )
    def test_malformed_criteria_rejected(self, body):
        with pytest.raises(CohortError):
            criterion_from_json(body)

    def test_definition_requires_name(self):
        with pytest.raises(CohortError):
            CohortDefinition.from_json({"inclusion": []})


class TestEngine:
    def test_matches_oracle_on_mixed_criteria(self):
        app, reports = _build_app(n_docs=12)
        engine = _engine_of(app)
        oracle = BruteForceCohortEvaluator()
        for report in reports:
            oracle.add_report(
                report.report_id,
                report.to_document(),
                report.annotations,
            )
        definition = CohortDefinition(
            name="mixed",
            inclusion=[
                EntityCriterion(MentionSpec(entity_type="Sign_symptom")),
                TemporalCriterion(
                    "BEFORE",
                    MentionSpec(entity_type="Sign_symptom"),
                    MentionSpec(entity_type="Medication"),
                ),
                ValueCriterion("year", "gte", 1990),
            ],
            exclusion=[
                EntityCriterion(
                    MentionSpec(entity_type="Sign_symptom", negated=True)
                )
            ],
        )
        result = engine.evaluate(definition)
        assert result.members == oracle.evaluate(definition)
        for criterion in definition.inclusion + definition.exclusion:
            candidates, _backend = engine.candidates(criterion)
            assert candidates == oracle.candidates(criterion)

    def test_empty_inclusion_selects_population(self):
        app, reports = _build_app(n_docs=4)
        engine = _engine_of(app)
        result = engine.evaluate(CohortDefinition(name="all"))
        assert result.members == sorted(r.report_id for r in reports)
        assert result.population == 4

    def test_cardinality_ordering_and_short_circuit(self):
        app, _reports = _build_app(n_docs=6)
        engine = _engine_of(app)
        definition = CohortDefinition(
            name="sc",
            inclusion=[
                # Broad: every report mentions some entity.
                EntityCriterion(MentionSpec()),
                # Impossible: no such surface exists.
                EntityCriterion(
                    MentionSpec(entity_type="Medication", value="no-such-drug")
                ),
                TextCriterion("fever"),
            ],
        )
        result = engine.evaluate(definition)
        assert result.members == []
        reports = {
            report.criterion.get("value"): report
            for report in result.reports
        }
        # The impossible criterion has the smallest estimate, so it ran
        # first and emptied the intersection; at least one later
        # criterion must have been short-circuited.
        impossible = reports["no-such-drug"]
        assert not impossible.skipped and impossible.candidates == 0
        skipped = [r for r in result.reports if r.skipped]
        assert skipped
        assert all(r.seconds == 0.0 and r.backend == "" for r in skipped)
        # Evaluation order in the report list is ascending by estimate.
        evaluated = [r for r in result.reports if r.role == "inclusion"]
        estimates = [r.estimated for r in evaluated]
        assert estimates == sorted(estimates)

    def test_backend_selection(self):
        app, _reports = _build_app(n_docs=4)
        engine = _engine_of(app)
        cases = [
            (EntityCriterion(MentionSpec(entity_type="Medication")), "graph"),
            (
                TemporalCriterion(
                    "OVERLAP",
                    MentionSpec(entity_type="Disease_disorder"),
                    MentionSpec(entity_type="Medication"),
                ),
                "planner",
            ),
            (TextCriterion("patient"), "search"),
            (ValueCriterion("category", "eq", "cardiovascular"), "docstore"),
        ]
        for criterion, expected_backend in cases:
            _candidates, backend = engine.candidates(criterion)
            assert backend == expected_backend
        result = engine.evaluate(
            CohortDefinition(
                name="backends", inclusion=[c for c, _b in cases]
            )
        )
        kind_backend = {
            "entity": "graph",
            "temporal": "planner",
            "text": "search",
            "value": "docstore",
        }
        evaluated = [r for r in result.reports if not r.skipped]
        assert evaluated
        for row in evaluated:
            assert row.backend == kind_backend[row.criterion["kind"]]
        assert engine.counters["criteria_evaluated"] == len(evaluated)

    def test_stats_expose_last_evaluation(self):
        app, _reports = _build_app(n_docs=3)
        engine = _engine_of(app)
        engine.evaluate(
            CohortDefinition(
                name="s",
                inclusion=[EntityCriterion(MentionSpec(entity_type="Age"))],
            )
        )
        stats = engine.stats()
        assert stats["counters"]["cohorts_evaluated"] == 1
        last = stats["last_evaluations"]["s"]
        assert last["criteria"][0]["backend"] == "graph"
        assert last["criteria"][0]["candidates"] >= 0


class TestCohortApi:
    def test_define_evaluate_paginate(self):
        app, reports = _build_app(n_docs=8)
        created = app.handle(
            "POST",
            "/cohorts",
            body={
                "name": "everyone",
                "inclusion": [],
                "exclusion": [],
            },
        )
        assert created.status == 201
        listing = app.handle("GET", "/cohorts")
        assert [c["name"] for c in listing.body["cohorts"]] == ["everyone"]

        page = app.handle(
            "POST",
            "/cohorts/everyone/evaluate",
            params={"skip": "2", "limit": "3"},
        )
        assert page.status == 200
        assert page.body["size"] == len(reports)
        all_ids = sorted(r.report_id for r in reports)
        assert page.body["members"] == all_ids[2:5]
        assert page.body["skip"] == 2 and page.body["limit"] == 3

    def test_evaluate_reports_criterion_timings(self):
        app, _reports = _build_app(n_docs=5)
        app.handle(
            "POST",
            "/cohorts",
            body={
                "name": "meds",
                "inclusion": [
                    {"kind": "entity", "entity_type": "Medication"}
                ],
            },
        )
        evaluated = app.handle("POST", "/cohorts/meds/evaluate")
        rows = evaluated.body["criteria"]
        assert len(rows) == 1
        assert rows[0]["backend"] == "graph"
        assert rows[0]["candidates"] >= 0
        assert rows[0]["seconds"] >= 0.0
        stats = app.handle("GET", "/stats")
        assert stats.body["cohort"]["counters"]["cohorts_evaluated"] == 1
        assert "meds" in stats.body["cohort"]["last_evaluations"]

    def test_validation_and_missing_cohorts(self):
        app, _reports = _build_app(n_docs=2)
        bad = app.handle(
            "POST",
            "/cohorts",
            body={"name": "x", "inclusion": [{"kind": "bogus"}]},
        )
        assert bad.status == 400
        assert app.handle("GET", "/cohorts/none").status == 404
        assert app.handle("POST", "/cohorts/none/evaluate").status == 404
        assert app.handle("DELETE", "/cohorts/none").status == 404

    @pytest.mark.parametrize(
        "criterion",
        [
            # Operator-shaped values and fields are plain data.
            {"kind": "value", "field": "text", "op": "eq", "value": {"$regex": "."}},
            {"kind": "value", "field": "$or", "op": "eq", "value": [{"year": {"$gt": 0}}]},
            {"kind": "value", "field": "text", "op": "eq", "value": {"$where": "1"}},
            # A dotted path does not step into an array of objects.
            {"kind": "value", "field": "sections.name", "op": "eq", "value": "demographics"},
            {"kind": "value", "field": "sections.name", "op": "ne", "value": "demographics"},
            # One element must satisfy both bounds.
            {"kind": "value", "field": "nums", "op": "between", "value": [5, 6]},
            {"kind": "value", "field": "nums", "op": "between", "value": [0, 1]},
        ],
    )
    def test_value_criterion_agrees_with_oracle(self, criterion):
        app, reports = _build_app(n_docs=5)
        extra = {"_id": "nums", "title": "t", "text": "t", "nums": [1, 10]}
        app.register_report(extra)
        oracle = BruteForceCohortEvaluator()
        for report in reports:
            oracle.add_report(
                report.report_id, report.to_document(), report.annotations
            )
        oracle.add_report("nums", extra, None)
        body = {"name": "v", "inclusion": [criterion]}
        assert app.handle("POST", "/cohorts", body=body).status == 201
        evaluated = app.handle("POST", "/cohorts/v/evaluate")
        assert evaluated.status == 200
        expected = oracle.evaluate(CohortDefinition.from_json(body))
        assert evaluated.body["members"] == expected

    def test_redefine_replaces_and_delete_removes(self):
        app, _reports = _build_app(n_docs=2)
        for description in ("first", "second"):
            app.handle(
                "POST",
                "/cohorts",
                body={"name": "c", "description": description},
            )
        fetched = app.handle("GET", "/cohorts/c")
        assert fetched.body["description"] == "second"
        assert app.handle("DELETE", "/cohorts/c").status == 200
        assert app.handle("GET", "/cohorts/c").status == 404


class TestFhirExport:
    def test_bundle_round_trip_provenance_resolves(self, tmp_path):
        app, reports = _build_app(n_docs=6)
        app.handle(
            "POST",
            "/cohorts",
            body={
                "name": "f",
                "inclusion": [
                    {"kind": "entity", "entity_type": "Disease_disorder"}
                ],
            },
        )
        response = app.handle("GET", "/cohorts/f/fhir")
        assert response.status == 200

        path = tmp_path / "bundle.json"
        export_fhir_bundle(
            "f",
            [entry["resource"]["id"]
             for entry in response.body["entry"]
             if entry["resource"]["resourceType"] == "Patient"],
            app.review.annotations,
            path,
        )
        bundle = parse_bundle(path.read_text(encoding="utf-8"))
        assert bundle == response.body

        texts = {r.report_id: r.annotations.text for r in reports}
        spans = bundle_provenance(bundle)
        assert spans
        for provenance in spans:
            text = texts[provenance["reportId"]]
            start, end = provenance["start"], provenance["end"]
            assert text[start:end] == provenance["text"]

    def test_negated_mentions_export_as_refuted(self):
        app, reports = _build_app(n_docs=10)
        response = app.handle(
            "POST",
            "/cohorts",
            body={
                "name": "neg",
                "inclusion": [
                    {
                        "kind": "entity",
                        "entity_type": "Sign_symptom",
                        "negated": True,
                    }
                ],
            },
        )
        assert response.ok
        bundle = app.handle("GET", "/cohorts/neg/fhir").body
        observations = [
            entry["resource"]
            for entry in bundle["entry"]
            if entry["resource"]["resourceType"] == "Observation"
        ]
        assert any(not obs["valueBoolean"] for obs in observations)

    def test_export_uses_atomic_write(self, tmp_path, monkeypatch):
        calls = []
        real = repro.durability.atomic_write

        def spy(path, data, encoding="utf-8"):
            calls.append(str(path))
            return real(path, data, encoding)

        monkeypatch.setattr(repro.durability, "atomic_write", spy)
        path = tmp_path / "cohort.fhir.json"
        export_fhir_bundle("c", [], lambda _doc_id: None, path)
        assert calls == [str(path)]
        assert not list(tmp_path.glob("*.tmp")), "temp file leaked"
        assert json.loads(path.read_text())["resourceType"] == "Bundle"

    def test_parse_bundle_rejects_malformed(self):
        with pytest.raises(CohortError):
            parse_bundle({"resourceType": "Patient"})
        with pytest.raises(CohortError):
            parse_bundle(
                {"resourceType": "Bundle", "entry": [{}], "total": 1}
            )
        with pytest.raises(CohortError):
            parse_bundle(
                {"resourceType": "Bundle", "entry": [], "total": 3}
            )


class TestCohortFuzz:
    def test_first_cases_agree(self):
        for index in range(5):
            case = gen_cohort_case(case_rng(0, "cohort", index))
            assert check_cohort_case(case) is None

    def test_malformed_case_is_vacuous(self):
        assert check_cohort_case({"categories": []}) is None
        assert (
            check_cohort_case(
                {
                    "corpus_seed": 1,
                    "categories": ["not-a-category"],
                    "inclusion": [],
                    "exclusion": [],
                    "deletes": [],
                    "permutation_seed": 0,
                }
            )
            is None
        )
