"""Tests for the document store (MongoDB analog)."""

import pytest
from hypothesis import given, strategies as st

from repro.docstore.query import compile_query, matches
from repro.docstore.store import Collection, DocumentStore
from repro.durability import (
    DurabilityManager,
    MemFS,
    WriteAheadLog,
    write_snapshot,
)
from repro.exceptions import DocumentStoreError, DuplicateKeyError, QueryError


class TestQueryOperators:
    DOC = {
        "title": "case 1",
        "year": 2018,
        "tags": ["cvd", "rare"],
        "meta": {"journal": {"name": "JCCR"}},
        "authors": [{"name": "Chen"}, {"name": "Garcia"}],
    }

    def test_implicit_equality(self):
        assert matches(self.DOC, {"title": "case 1"})
        assert not matches(self.DOC, {"title": "case 2"})

    def test_dotted_path(self):
        assert matches(self.DOC, {"meta.journal.name": "JCCR"})

    def test_array_element_equality(self):
        assert matches(self.DOC, {"tags": "cvd"})

    def test_array_of_documents_field(self):
        assert matches(self.DOC, {"authors.name": "Garcia"})

    def test_array_numeric_index(self):
        assert matches(self.DOC, {"authors.0.name": "Chen"})
        assert not matches(self.DOC, {"authors.9.name": "Chen"})

    def test_comparisons(self):
        assert matches(self.DOC, {"year": {"$gt": 2017}})
        assert matches(self.DOC, {"year": {"$gte": 2018}})
        assert matches(self.DOC, {"year": {"$lt": 2019}})
        assert not matches(self.DOC, {"year": {"$lte": 2017}})

    def test_comparison_type_guard(self):
        assert not matches(self.DOC, {"title": {"$gt": 5}})

    def test_ne(self):
        assert matches(self.DOC, {"year": {"$ne": 1999}})

    def test_in_nin(self):
        assert matches(self.DOC, {"year": {"$in": [2017, 2018]}})
        assert matches(self.DOC, {"year": {"$nin": [1999]}})
        assert matches(self.DOC, {"tags": {"$in": ["rare"]}})

    def test_in_requires_list(self):
        with pytest.raises(QueryError):
            matches(self.DOC, {"year": {"$in": 2018}})

    def test_exists(self):
        assert matches(self.DOC, {"title": {"$exists": True}})
        assert matches(self.DOC, {"missing": {"$exists": False}})

    def test_regex(self):
        assert matches(self.DOC, {"title": {"$regex": r"^case \d"}})

    def test_size(self):
        assert matches(self.DOC, {"tags": {"$size": 2}})
        with pytest.raises(QueryError):
            matches(self.DOC, {"tags": {"$size": "2"}})

    def test_all(self):
        assert matches(self.DOC, {"tags": {"$all": ["cvd", "rare"]}})
        assert not matches(self.DOC, {"tags": {"$all": ["cvd", "x"]}})

    def test_elem_match(self):
        assert matches(
            self.DOC, {"authors": {"$elemMatch": {"name": "Chen"}}}
        )

    def test_not(self):
        assert matches(self.DOC, {"year": {"$not": {"$gt": 2020}}})

    def test_logical_combinators(self):
        assert matches(
            self.DOC,
            {"$and": [{"year": 2018}, {"title": "case 1"}]},
        )
        assert matches(
            self.DOC, {"$or": [{"year": 1999}, {"title": "case 1"}]}
        )
        assert matches(self.DOC, {"$nor": [{"year": 1999}]})

    def test_multiple_operators_on_field(self):
        assert matches(self.DOC, {"year": {"$gte": 2018, "$lte": 2018}})

    def test_unknown_operator(self):
        with pytest.raises(QueryError):
            matches(self.DOC, {"year": {"$frob": 1}})

    def test_unknown_top_level_operator(self):
        with pytest.raises(QueryError):
            matches(self.DOC, {"$xor": []})

    def test_query_must_be_dict(self):
        with pytest.raises(QueryError):
            compile_query("not a dict")

    @given(
        st.dictionaries(
            st.sampled_from(["a", "b", "c"]),
            st.integers(-5, 5),
            max_size=3,
        )
    )
    def test_empty_query_matches_everything(self, doc):
        assert matches(doc, {})


class TestCollection:
    def make(self):
        coll = Collection("reports")
        for i in range(10):
            coll.insert_one(
                {"_id": f"r{i}", "n": i, "cat": "cvd" if i % 2 == 0 else "other"}
            )
        return coll

    def test_insert_assigns_id(self):
        coll = Collection("c")
        doc_id = coll.insert_one({"a": 1})
        assert coll.get(doc_id)["a"] == 1

    def test_duplicate_id_rejected(self):
        coll = self.make()
        with pytest.raises(DuplicateKeyError):
            coll.insert_one({"_id": "r0"})

    def test_non_dict_rejected(self):
        with pytest.raises(DocumentStoreError):
            Collection("c").insert_one([1, 2])

    def test_insert_copies_document(self):
        coll = Collection("c")
        original = {"a": [1]}
        doc_id = coll.insert_one(original)
        original["a"].append(2)
        assert coll.get(doc_id)["a"] == [1]

    def test_find_returns_copies(self):
        coll = self.make()
        hit = coll.find({"_id": "r0"})[0]
        hit["n"] = 999
        assert coll.get("r0")["n"] == 0

    def test_find_with_sort_skip_limit(self):
        coll = self.make()
        hits = coll.find({}, sort=[("n", -1)], skip=2, limit=3)
        assert [h["n"] for h in hits] == [7, 6, 5]

    def test_sort_direction_validated(self):
        coll = self.make()
        with pytest.raises(QueryError):
            coll.find({}, sort=[("n", 2)])

    def test_projection(self):
        coll = self.make()
        hit = coll.find({"_id": "r1"}, projection=["cat"])[0]
        assert set(hit) == {"_id", "cat"}

    def test_count_and_len(self):
        coll = self.make()
        assert len(coll) == 10
        assert coll.count({"cat": "cvd"}) == 5

    def test_distinct(self):
        coll = self.make()
        assert coll.distinct("cat") == ["cvd", "other"]

    def test_delete(self):
        coll = self.make()
        assert coll.delete_one({"cat": "cvd"}) == 1
        assert coll.count({"cat": "cvd"}) == 4
        while coll.delete_one({"cat": "cvd"}):
            pass
        assert coll.count({"cat": "cvd"}) == 0
        assert len(coll) == 5


class TestDocumentStore:
    def test_collections_created_on_demand(self):
        store = DocumentStore()
        store.collection("a").insert_one({"x": 1})
        assert store.collection_names() == ["a"]

    def test_journal_holds_three_op_kinds(self):
        store = DocumentStore()
        store.journal = []
        reports = store.collection("reports")
        reports.insert_one({"_id": "a", "cat": "cvd"})
        reports.delete_one({"cat": "cvd"})
        assert store.journal == [
            {"op": "ensure", "c": "reports"},
            {"op": "insert", "c": "reports", "doc": {"_id": "a", "cat": "cvd"}},
            {"op": "delete", "c": "reports", "id": "a"},
        ]

    def test_unknown_journal_op_rejected(self):
        with pytest.raises(DocumentStoreError):
            DocumentStore().durable_apply(
                {"op": "replace", "c": "reports", "doc": {"_id": "a"}}
            )

    def test_snapshot_with_indexes_key_and_wal_tail_recover(self):
        # The shape earlier versions of the store wrote: a snapshot whose
        # collections carry an "indexes" list, then a WAL tail of the
        # three op kinds every application write journals.
        reports_state = {
            "documents": [
                {"_id": "a", "cat": "cvd", "n": 1},
                {"_id": "b", "cat": "onc", "n": 2},
                {"_id": "reports-00000001", "cat": "cvd", "n": 3},
            ],
            "indexes": [],
            "id_seq": 1,
        }
        report_c = {"_id": "c", "cat": "neuro", "n": 4}
        tail = [
            {"op": "ensure", "c": "cohorts"},
            {"op": "insert", "c": "cohorts", "doc": {"_id": "c1"}},
            {"op": "insert", "c": "reports", "doc": report_c},
        ]
        fs = MemFS()
        write_snapshot(
            fs, 2, {"docstore": {"collections": {"reports": reports_state}}}
        )
        wal = WriteAheadLog(fs)
        wal.append({"lsn": 3, "ops": {"docstore": tail}})
        delete = {"op": "delete", "c": "reports", "id": "b"}
        wal.append({"lsn": 4, "ops": {"docstore": [delete]}})
        wal.flush()

        store = DocumentStore()
        manager = DurabilityManager(fs)
        manager.attach("docstore", store)
        report = manager.recover()

        assert report.snapshot_loaded and report.records_replayed == 2
        assert store.collection_names() == ["cohorts", "reports"]
        reports = store.collection("reports")
        assert [doc["_id"] for doc in reports.find({}, sort=[("n", 1)])] == [
            "a",
            "reports-00000001",
            "c",
        ]
        assert reports.count() == 3
        assert reports.count({"cat": "cvd"}) == 2
        assert reports.distinct("cat") == ["cvd", "neuro"]
        assert store.collection("cohorts").get("c1") == {"_id": "c1"}
        # The id sequence came back with the snapshot.
        assert reports.insert_one({"n": 5}) == "reports-00000002"
