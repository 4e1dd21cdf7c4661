"""Tests for the application facade (the REST-like backend)."""

import pytest

from repro.annotation.brat import serialize_ann
from repro.crawler.repository import publication_fields
from repro.grobid.simpdf import render_simpdf


@pytest.fixture(scope="module")
def app(demo_system):
    pipeline, _reports = demo_system
    return pipeline.app


@pytest.fixture(scope="module")
def some_id(app):
    return app.store.collection("reports").find(limit=1)[0]["_id"]


class TestRouting:
    def test_unknown_route_404(self, app):
        assert app.handle("GET", "/nothing/here").status == 404

    def test_wrong_method_404(self, app):
        assert app.handle("DELETE", "/reports").status == 404


class TestReports:
    def test_list_reports(self, app):
        response = app.handle("GET", "/reports", params={"limit": 5})
        assert response.ok
        assert len(response.body["reports"]) == 5

    def test_list_projection_shape(self, app):
        response = app.handle("GET", "/reports", params={"limit": 1})
        report = response.body["reports"][0]
        assert "_id" in report
        assert "text" not in report  # projected out

    @pytest.mark.parametrize(
        "category",
        [{"$ne": "nope"}, {"$regex": "^(neuro|infect)"}, ["a"], 5, ""],
        ids=["ne", "regex", "list", "int", "empty"],
    )
    def test_category_must_be_a_string(self, app, category):
        # Passed through raw, a dict reached the docstore as a query
        # operator: $ne listed every report, $regex ran the client's
        # pattern, and a list silently matched nothing.
        response = app.handle(
            "GET", "/reports", params={"category": category}
        )
        assert response.status == 400
        assert "category" in response.body["error"]

    def test_category_filters_by_equality(self, app):
        reports = app.store.collection("reports")
        reports.insert_one({"_id": "cat-a", "category": "neuro", "title": "t"})
        try:
            response = app.handle(
                "GET", "/reports", params={"category": "neuro"}
            )
            assert [r["_id"] for r in response.body["reports"]] == ["cat-a"]
        finally:
            reports.delete_one("cat-a")

    def test_get_report(self, app, some_id):
        response = app.handle("GET", f"/reports/{some_id}")
        assert response.ok
        assert response.body["_id"] == some_id
        assert response.body["text"]

    def test_get_unknown_report_404(self, app):
        assert app.handle("GET", "/reports/zzz").status == 404


class TestGraphEndpoints:
    def test_graph_json(self, app, some_id):
        response = app.handle("GET", f"/reports/{some_id}/graph")
        assert response.ok
        assert response.body["nodes"]
        node = response.body["nodes"][0]
        assert {"nodeId", "label", "entityType"} <= set(node)

    def test_svg(self, app, some_id):
        response = app.handle("GET", f"/reports/{some_id}/svg")
        assert response.ok
        assert response.body.startswith("<svg")

    def test_timeline(self, app, some_id):
        response = app.handle("GET", f"/reports/{some_id}/timeline")
        assert response.ok
        assert response.body.startswith("<svg")


class TestAnnotations:
    def test_get_ann(self, app, some_id):
        response = app.handle("GET", f"/reports/{some_id}/ann")
        assert response.ok
        assert response.body.splitlines()[0].startswith("T")

    def test_put_ann_roundtrip(self, app, some_id):
        current = app.handle("GET", f"/reports/{some_id}/ann").body
        response = app.handle("PUT", f"/reports/{some_id}/ann", body=current)
        assert response.ok

    def test_put_ann_rejects_bad_offsets(self, app, some_id):
        bad = "T1\tSign_symptom 0 999999\twhatever\n"
        response = app.handle("PUT", f"/reports/{some_id}/ann", body=bad)
        assert response.status == 422

    def test_put_ann_rejects_schema_violation(self, app, some_id):
        text = app.handle("GET", f"/reports/{some_id}").body["text"]
        bad = f"T1\tMartianLabel 0 3\t{text[0:3]}\n"
        response = app.handle("PUT", f"/reports/{some_id}/ann", body=bad)
        assert response.status == 422
        assert response.body["issues"]

    def test_put_ann_requires_string_body(self, app, some_id):
        response = app.handle("PUT", f"/reports/{some_id}/ann", body={"x": 1})
        assert response.status == 400


class TestSearchEndpoint:
    def test_search_returns_ranked_results(self, app):
        response = app.handle(
            "GET", "/search", params={"q": "chest pain", "size": 5}
        )
        assert response.ok
        results = response.body["results"]
        assert results
        assert all({"id", "score", "engine"} <= set(r) for r in results)

    def test_size_zero_answers_no_rows(self, app):
        response = app.handle(
            "GET", "/search", params={"q": "chest pain", "size": 0}
        )
        assert response.ok
        assert response.body["results"] == []

    def test_search_requires_query(self, app):
        assert app.handle("GET", "/search").status == 400


class TestSubmission:
    def test_pdf_submission(self, app, demo_system):
        _pipeline, reports = demo_system
        fields = publication_fields(reports[0])
        response = app.handle(
            "POST", "/submissions", body=render_simpdf(*fields)
        )
        assert response.status == 201
        assert response.body["title"] == reports[0].title
        assert response.body["extracted"]
        # The submitted report is now retrievable.
        stored = app.handle("GET", f"/reports/{response.body['id']}")
        assert stored.ok

    def test_submission_rejects_garbage(self, app):
        assert app.handle("POST", "/submissions", body="garbage").status == 422

    def test_submission_requires_body(self, app):
        assert app.handle("POST", "/submissions", body=None).status == 400


class TestStats:
    def test_stats_shape(self, app):
        response = app.handle("GET", "/stats")
        assert response.ok
        assert response.body["n_reports"] > 0
        assert response.body["graph_nodes"] > 0


class TestIntParamValidation:
    """Every paginated route must 400 (with a JSON error body) on
    non-integer or negative skip/limit/size — never 500, never accept.

    Regression for the bare ``int(params.get(...))`` calls that used to
    raise an uncaught ValueError on ``GET /reports?skip=abc``.
    """

    @pytest.fixture(scope="class")
    def cohort_app(self, app):
        app.handle(
            "POST",
            "/cohorts",
            body={"name": "pv-check", "inclusion": [], "exclusion": []},
        )
        yield app
        app.handle("DELETE", "/cohorts/pv-check")

    # (method, path, param names subject to integer validation)
    PAGINATED_ROUTES = [
        ("GET", "/reports", {}, ["skip", "limit"]),
        ("GET", "/search", {"q": "fever"}, ["size"]),
        ("GET", "/suggest", {"q": "fe"}, ["size"]),
        ("POST", "/cohorts/pv-check/evaluate", {}, ["skip", "limit"]),
        ("GET", "/review/queue", {}, ["skip", "limit"]),
    ]

    @pytest.mark.parametrize("bad", ["abc", "-1", "1.5", ""])
    def test_bad_values_return_400(self, cohort_app, bad):
        for method, path, base_params, names in self.PAGINATED_ROUTES:
            for name in names:
                response = cohort_app.handle(
                    method, path, params={**base_params, name: bad}
                )
                assert response.status == 400, (path, name, bad)
                assert isinstance(response.body, dict), (path, name, bad)
                assert name in response.body["error"], (path, name, bad)

    def test_good_values_still_work(self, cohort_app):
        for method, path, base_params, names in self.PAGINATED_ROUTES:
            params = {**base_params, **{name: "1" for name in names}}
            response = cohort_app.handle(method, path, params=params)
            assert response.ok, (path, response.body)

    def test_defaults_unaffected(self, cohort_app):
        for method, path, base_params, _names in self.PAGINATED_ROUTES:
            response = cohort_app.handle(method, path, params=base_params)
            assert response.ok, (path, response.body)
