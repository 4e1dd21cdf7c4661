"""Tests for the document store (MongoDB analog)."""

import json

import pytest

from repro.docstore.store import Collection, DocumentStore
from repro.durability import (
    DurabilityManager,
    MemFS,
    WriteAheadLog,
    write_snapshot,
)
from repro.exceptions import DocumentStoreError, DuplicateKeyError
from repro.testing.oracles import encode_record


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
        hit = coll.find(lambda doc: doc["_id"] == "r0")[0]
        hit["n"] = 999
        assert coll.get("r0")["n"] == 0

    def test_find_with_sort_skip_limit(self):
        coll = Collection("c")
        for i in (5, 3, 9, 0, 7, 2, 8):
            coll.insert_one({"_id": f"r{i}", "n": i})
        hits = coll.find(lambda doc: doc["n"] > 1, skip=2, limit=3)
        assert [h["_id"] for h in hits] == ["r5", "r7", "r8"]

    def test_projection(self):
        coll = self.make()
        hit = coll.find(lambda doc: doc["_id"] == "r1", projection=["cat"])[0]
        assert set(hit) == {"_id", "cat"}

    def test_count_and_len(self):
        coll = self.make()
        assert len(coll) == 10
        assert len(coll.find(lambda doc: doc["cat"] == "cvd")) == 5

    def test_delete(self):
        coll = self.make()
        assert coll.delete_one("r0") == 1
        assert coll.delete_one("r0") == 0
        assert coll.get("r0") is None
        assert len(coll) == 9


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
        reports.delete_one("a")
        assert all(isinstance(op, bytes) for op in store.journal)
        assert [json.loads(op) for op in store.journal] == [
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
        wal.append(encode_record({"lsn": 3, "ops": {"docstore": tail}}))
        delete = {"op": "delete", "c": "reports", "id": "b"}
        wal.append(encode_record({"lsn": 4, "ops": {"docstore": [delete]}}))
        wal.flush()

        store = DocumentStore()
        manager = DurabilityManager(fs)
        manager.attach("docstore", store)
        report = manager.recover()

        assert report.snapshot_loaded and report.records_replayed == 2
        assert store.collection_names() == ["cohorts", "reports"]
        reports = store.collection("reports")
        assert [doc["_id"] for doc in reports.find()] == [
            "a",
            "c",
            "reports-00000001",
        ]
        assert [doc["cat"] for doc in reports.find()] == ["cvd", "neuro", "cvd"]
        assert store.collection("cohorts").get("c1") == {"_id": "c1"}
        # The id sequence came back with the snapshot.
        assert reports.insert_one({"n": 5}) == "reports-00000002"
