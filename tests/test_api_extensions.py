"""Tests for the extended API endpoints: categories, delete, highlight,
and mini-Cypher ORDER BY."""

import pytest

from repro.graphdb.cypher import CypherEngine


class TestCategoriesEndpoint:
    def test_fig1_data_from_aggregation(self, demo_system):
        pipeline, _reports = demo_system
        # The crawled ingest path has no category metadata; register a
        # couple of categorized documents directly.
        for i, category in enumerate(["cancer", "cancer", "cardiovascular"]):
            pipeline.store.collection("reports").insert_one(
                {"_id": f"cat-{i}", "category": category, "title": "t"}
            )
        response = pipeline.app.handle("GET", "/categories")
        assert response.ok
        rows = response.body["categories"]
        assert rows[0]["category"] == "cancer"
        assert rows[0]["count"] == 2
        assert sum(row["share"] for row in rows) == pytest.approx(1.0)
        for i in range(3):
            pipeline.store.collection("reports").delete_one(f"cat-{i}")

    def test_stats_and_categories_count_alike(self, demo_system):
        pipeline, _reports = demo_system
        reports = pipeline.store.collection("reports")
        categories = ["neuro", "cancer", "neuro", "derm", "cancer", "cardio"]
        for i, category in enumerate(categories):
            reports.insert_one({"_id": f"cat-{i}", "category": category})
        try:
            rows = pipeline.app.handle("GET", "/categories").body["categories"]
            by_category = pipeline.app.handle("GET", "/stats").body[
                "by_category"
            ]
        finally:
            for i in range(len(categories)):
                reports.delete_one(f"cat-{i}")
        # Most frequent first; ties in category order.
        assert [(row["category"], row["count"]) for row in rows] == [
            ("cancer", 2),
            ("neuro", 2),
            ("cardio", 1),
            ("derm", 1),
        ]
        assert list(by_category.items()) == [
            ("cancer", 2),
            ("cardio", 1),
            ("derm", 1),
            ("neuro", 2),
        ]


class TestDeleteEndpoint:
    def test_delete_removes_everywhere(self, demo_system):
        pipeline, _ = demo_system
        doc = pipeline.store.collection("reports").find(limit=1)[0]
        doc_id = doc["_id"]
        n_nodes_before = pipeline.indexer.graph.n_nodes
        response = pipeline.app.handle("DELETE", f"/reports/{doc_id}")
        assert response.ok
        assert pipeline.app.handle("GET", f"/reports/{doc_id}").status == 404
        assert pipeline.indexer.graph.n_nodes < n_nodes_before
        assert pipeline.indexer.graph.find_nodes(doc_id=doc_id) == []
        # Restore for other tests sharing the session fixture.
        pipeline.app.register_report(doc)

    def test_delete_unknown_404(self, demo_system):
        pipeline, _ = demo_system
        assert pipeline.app.handle("DELETE", "/reports/nope").status == 404


class TestSearchHighlightParam:
    def test_highlights_included_on_request(self, demo_system):
        pipeline, reports = demo_system
        symptom = reports[0].annotations.spans_with_label("Sign_symptom")[0]
        response = pipeline.app.handle(
            "GET",
            "/search",
            params={"q": symptom.text, "size": 3, "highlight": "true"},
        )
        assert response.ok
        assert all("highlights" in row for row in response.body["results"])
        assert any(
            "<em>" in snippet
            for row in response.body["results"]
            for snippet in row["highlights"]
        )

    def test_highlights_absent_by_default(self, demo_system):
        pipeline, _ = demo_system
        response = pipeline.app.handle(
            "GET", "/search", params={"q": "fever", "size": 3}
        )
        assert all(
            "highlights" not in row for row in response.body["results"]
        )


class TestCypherOrderBy:
    def _engine(self):
        engine = CypherEngine()
        engine.run("CREATE (a:N {name: 'x', rank: 3})")
        engine.run("CREATE (a:N {name: 'y', rank: 1})")
        engine.run("CREATE (a:N {name: 'z', rank: 2})")
        return engine

    def test_ascending(self):
        rows = self._engine().run(
            "MATCH (a:N) RETURN a.name ORDER BY a.rank"
        )
        assert [row["a.name"] for row in rows] == ["y", "z", "x"]

    def test_descending(self):
        rows = self._engine().run(
            "MATCH (a:N) RETURN a.name ORDER BY a.rank DESC"
        )
        assert [row["a.name"] for row in rows] == ["x", "z", "y"]

    def test_order_by_with_limit(self):
        rows = self._engine().run(
            "MATCH (a:N) RETURN a.name ORDER BY a.rank LIMIT 1"
        )
        assert rows == [{"a.name": "y"}]

    def test_explicit_asc_keyword(self):
        rows = self._engine().run(
            "MATCH (a:N) RETURN a.name ORDER BY a.rank ASC LIMIT 1"
        )
        assert rows == [{"a.name": "y"}]
