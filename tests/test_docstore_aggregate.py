"""Tests for the aggregation pipeline."""

import pytest

from repro.docstore.aggregate import run_pipeline
from repro.docstore.store import Collection
from repro.exceptions import QueryError

DOCS = [
    {"_id": "a", "category": "cvd", "year": 2018, "cites": 4, "tags": ["x", "y"]},
    {"_id": "b", "category": "cvd", "year": 2019, "cites": 2, "tags": ["x"]},
    {"_id": "c", "category": "cancer", "year": 2018, "cites": 10, "tags": []},
    {"_id": "d", "category": "cancer", "year": 2020, "cites": 6, "tags": ["z"]},
    {"_id": "e", "category": "neuro", "year": 2020, "cites": 1, "tags": ["x"]},
]


def coll():
    collection = Collection("agg")
    for doc in DOCS:
        collection.insert_one(doc)
    return collection


class TestStages:
    def test_match_group_count(self):
        rows = coll().aggregate(
            [
                {"$match": {"year": {"$gte": 2019}}},
                {"$group": {"_id": "$category", "n": {"$count": 1}}},
            ]
        )
        assert {row["_id"]: row["n"] for row in rows} == {
            "cvd": 1,
            "cancer": 1,
            "neuro": 1,
        }

    def test_group_by_array_field(self):
        rows = coll().aggregate(
            [{"$group": {"_id": "$tags", "n": {"$count": 1}}}]
        )
        assert {tuple(row["_id"]): row["n"] for row in rows} == {
            (): 1,
            ("x",): 2,
            ("x", "y"): 1,
            ("z",): 1,
        }

    def test_sort(self):
        rows = coll().aggregate([{"$sort": {"cites": -1}}])
        assert [row["_id"] for row in rows] == ["c", "d", "a", "b", "e"]

    def test_project_includes_and_expressions(self):
        rows = coll().aggregate(
            [
                {"$match": {"_id": "a"}},
                {"$project": {"category": 1, "label": "$year"}},
            ]
        )
        assert rows == [{"_id": "a", "category": "cvd", "label": 2018}]

    def test_pipeline_does_not_mutate_source(self):
        collection = coll()
        rows = collection.aggregate([{"$match": {"_id": "a"}}])
        rows[0]["tags"].append("mutated")
        collection.aggregate([{"$project": {"category": 1}}])
        assert collection.get("a")["tags"] == ["x", "y"]
        assert collection.get("a")["cites"] == 4


class TestErrors:
    def test_unknown_stage(self):
        with pytest.raises(QueryError):
            run_pipeline(DOCS, [{"$frobnicate": {}}])

    def test_group_without_id(self):
        with pytest.raises(QueryError):
            run_pipeline(DOCS, [{"$group": {"n": {"$count": 1}}}])

    def test_unknown_accumulator(self):
        with pytest.raises(QueryError):
            run_pipeline(
                DOCS, [{"$group": {"_id": "$category", "n": {"$median": "$cites"}}}]
            )

    def test_expression_object_rejected(self):
        with pytest.raises(QueryError):
            run_pipeline(
                DOCS,
                [{"$group": {"_id": {"cat": "$category"}, "n": {"$count": 1}}}],
            )

    def test_multi_key_stage_rejected(self):
        with pytest.raises(QueryError):
            run_pipeline(DOCS, [{"$match": {}, "$sort": {"year": 1}}])
