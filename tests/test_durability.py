"""Tests for the durability subsystem: WAL, snapshots, recovery, faults."""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

import repro.docstore.store as store_module
import repro.durability.wal as wal_module
import repro.review.queue as queue_module
from repro.annotation.model import AnnotationDocument
from repro.api.app import CreateApplication
from repro.docstore.store import DocumentStore
from repro.durability import (
    DurabilityManager,
    FaultInjector,
    InjectedCrash,
    MemFS,
    OsFileSystem,
    WriteAheadLog,
    atomic_write,
    encode_op,
    load_snapshot,
    scan_records,
)
from repro.durability.wal import record_frame
from repro.exceptions import DurabilityError, PipelineError
from repro.ir.indexer import CreateIrIndexer
from repro.ir.searcher import CreateIrSearcher
from repro.pipeline import CreatePipeline
from repro.testing.oracles import encode_record


def _attached_manager(fs, **kwargs):
    store = DocumentStore()
    manager = DurabilityManager(fs, **kwargs)
    manager.attach("docstore", store)
    return manager, store


def _ingest(store, doc_id, text="fever and cough"):
    store.collection("reports").insert_one({"_id": doc_id, "text": text})


def _reports(store) -> list:
    return sorted(
        json.dumps(doc, sort_keys=True) for doc in store.collection("reports")
    )


class TestWriteAheadLog:
    def test_empty_log_replays_to_nothing(self):
        fs = MemFS()
        wal = WriteAheadLog(fs)
        result = wal.replay()
        assert result.records == []
        assert not result.torn

    def test_round_trip(self):
        fs = MemFS()
        wal = WriteAheadLog(fs)
        records = [{"lsn": i, "ops": {"docstore": [{"op": "x"}]}} for i in (1, 2, 3)]
        for record in records:
            wal.append(encode_record(record))
        wal.flush()
        assert WriteAheadLog(fs).replay().records == records

    def test_truncated_final_record_is_dropped(self):
        fs = MemFS()
        wal = WriteAheadLog(fs)
        wal.append(encode_record({"lsn": 1}))
        wal.append(encode_record({"lsn": 2}))
        wal.flush()
        data = fs.read_bytes("wal.log")
        fs.remove("wal.log")
        fs.append("wal.log", data[:-3])  # tear the tail
        fs.fsync("wal.log")
        result = WriteAheadLog(fs).replay(truncate_torn=True)
        assert [r["lsn"] for r in result.records] == [1]
        assert result.torn
        # The torn bytes were physically truncated away.
        again = WriteAheadLog(fs).replay()
        assert not again.torn
        assert [r["lsn"] for r in again.records] == [1]

    def test_corrupted_checksum_mid_log_stops_replay(self):
        fs = MemFS()
        wal = WriteAheadLog(fs)
        for lsn in (1, 2, 3):
            wal.append(encode_record({"lsn": lsn}))
        wal.flush()
        data = bytearray(fs.read_bytes("wal.log"))
        frame = len(encode_record({"lsn": 1}))  # full frame, header included
        # Flip a payload byte inside the second record.
        data[frame + 12] ^= 0xFF
        fs.remove("wal.log")
        fs.append("wal.log", bytes(data))
        fs.fsync("wal.log")
        result = WriteAheadLog(fs).replay()
        assert [r["lsn"] for r in result.records] == [1]
        assert result.torn
        assert "checksum" in result.torn_reason

    def test_record_over_64_mib_is_not_a_torn_tail(self):
        # Recovery once took any length field over 64 MiB for a torn
        # tail and truncated the log there, acknowledged records and all.
        big = encode_record(
            {"lsn": 1, "ops": {"docstore": [{"pad": "a" * (64 * 2**20)}]}}
        )
        fs = MemFS()
        fs.append("wal.log", big + encode_record({"lsn": 2}))
        fs.fsync("wal.log")
        del big
        size = len(fs.read_bytes("wal.log"))
        result = WriteAheadLog(fs).replay(truncate_torn=True)
        assert not result.torn
        assert [r["lsn"] for r in result.records] == [1, 2]
        assert len(result.records[0]["ops"]["docstore"][0]["pad"]) == 64 * 2**20
        assert len(fs.read_bytes("wal.log")) == size

    def test_scan_rejects_bad_magic(self):
        result = scan_records(b"XXXX" + b"\x00" * 20)
        assert result.records == []
        assert result.torn


class TestLosslessRecords:
    """A value JSON would hand back changed is refused before memory is
    touched, so what recovery rebuilds always equals what was live."""

    @pytest.mark.parametrize(
        "doc",
        [
            {"_id": "a", "m": {1: "one"}},
            {"_id": "a", "t": (1, 2)},
            {"_id": "a", "deep": [{"ok": [{None: 1}]}]},
            {"_id": "a", "deep": {"x": [[("y",)]]}},
            {"_id": "a", "k": {True: 1}},
        ],
    )
    def test_encode_refuses_what_would_not_decode_equal(self, doc):
        with pytest.raises(TypeError):
            encode_op({"op": "insert", "c": "reports", "doc": doc})

    def test_lossy_insert_changes_nothing_and_recovers_equal(self):
        fs = MemFS()
        manager, store = _attached_manager(fs)
        _ingest(store, "d0")
        manager.commit()
        reports = store.collection("reports")
        with pytest.raises(TypeError):
            reports.insert_one({"_id": "a", "m": {1: "one"}, "t": (1, 2)})
        assert reports.get("a") is None
        assert manager.commit() is None  # nothing was journaled
        manager.flush()
        recovered, r_store = _attached_manager(fs)
        recovered.recover()
        assert list(r_store.collection("reports")) == list(reports)
        assert _reports(r_store) == _reports(store)

    def test_nan_and_infinity_round_trip_as_json_tokens(self):
        # Pinned as it stands: NaN and the infinities are written as the
        # JSON extension tokens and recover as the same floats.
        fs = MemFS()
        manager, store = _attached_manager(fs)
        store.collection("reports").insert_one(
            {"_id": "n", "x": float("nan"), "y": [float("-inf")]}
        )
        manager.commit()
        manager.flush()
        assert b'"x":NaN,"y":[-Infinity]' in fs.read_bytes("wal.log")
        recovered, r_store = _attached_manager(fs)
        recovered.recover()
        doc = r_store.collection("reports").get("n")
        assert math.isnan(doc["x"])
        assert doc["y"] == [float("-inf")]

    def test_frame_bytes_are_pinned(self):
        record = {
            "lsn": 7,
            "ops": {
                "docstore": [
                    {
                        "op": "insert",
                        "c": "r",
                        "doc": {
                            "_id": "\u00e9",
                            "n": [1, 2.5, None, True, {"k": float("nan")}],
                        },
                    }
                ]
            },
        }
        pinned = (
            b"WALR\x00\x00\x00i\x19\xe3\xea\x17"
            b'{"lsn":7,"ops":{"docstore":[{"c":"r","doc":{"_id":"\xc3\xa9",'
            b'"n":[1,2.5,null,true,{"k":NaN}]},"op":"insert"}]}}'
        )
        assert encode_record(record) == pinned
        ops = {
            name: [encode_op(op) for op in store_ops]
            for name, store_ops in record["ops"].items()
        }
        assert record_frame(7, ops) == pinned


class _BareStore:
    """A ``Durable`` store whose journal the test fills by hand."""

    journal = None

    def durable_apply(self, op):
        pass

    def durable_snapshot(self):
        return {}

    def durable_restore(self, state):
        pass


_JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=6)
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)
_OPS = st.lists(
    st.dictionaries(st.text(max_size=4), _JSON_VALUES, max_size=4),
    max_size=4,
)


class TestSplicedRecords:
    """The commit splices each op's own bytes into the record; the frame
    must be the one a whole-record ``json.dumps`` gives."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(st.text(min_size=1, max_size=5), _OPS),
            min_size=1,
            max_size=4,
            unique_by=lambda pair: pair[0],
        )
    )
    def test_commit_frame_equals_the_whole_record_encode(self, stores):
        fs = MemFS()
        manager = DurabilityManager(fs)
        for name, ops in stores:  # attached in generated, unsorted order
            store = _BareStore()
            manager.attach(name, store)
            store.journal.extend(encode_op(op) for op in ops)
        lsn = manager.commit()
        record = {"lsn": 1, "ops": {name: ops for name, ops in stores if ops}}
        if not record["ops"]:
            assert lsn is None and not fs.exists("wal.log")
            return
        assert lsn == 1
        assert fs.read_bytes("wal.log") == encode_record(record)

    def test_non_ascii_unsorted_stores_and_empty_containers(self):
        fs = MemFS()
        manager = DurabilityManager(fs)
        stores = [
            ("zeta", [{"a": {}, "b": []}, {"n": float("-inf")}]),
            ("\u00e9t\u00e9", [{"x": [[{}], {"y": float("nan")}]}]),
            ("alpha", [{}]),
            ("m\u00fc", []),
        ]
        for name, ops in stores:
            store = _BareStore()
            manager.attach(name, store)
            store.journal.extend(encode_op(op) for op in ops)
        manager.commit()
        assert fs.read_bytes("wal.log") == encode_record(
            {"lsn": 1, "ops": {name: ops for name, ops in stores if ops}}
        )


class TestEncodeOnce:
    """Each journaled op is JSON-encoded once, by its store, before it
    is applied; the commit frames those bytes and encodes no op."""

    def test_one_encode_per_op_and_none_in_commit(self, monkeypatch):
        encodes = {"docstore": 0, "review": 0, "in_commit": 0}
        real_encode_op, real_dumps = wal_module.encode_op, json.dumps

        def counting(name):
            def encode(op):
                encodes[name] += 1
                return real_encode_op(op)

            return encode

        monkeypatch.setattr(store_module, "encode_op", counting("docstore"))
        monkeypatch.setattr(queue_module, "encode_op", counting("review"))

        def dumps_in_commit(value, *args, **kwargs):
            if isinstance(value, (dict, list)):
                encodes["in_commit"] += 1
            return real_dumps(value, *args, **kwargs)

        manager = DurabilityManager(MemFS())
        journaled = []
        real_commit = manager.commit

        def commit():
            journaled.append(
                {
                    name: list(store.journal)
                    for name, store in (
                        ("docstore", app.store),
                        ("review", app.review),
                    )
                    if store.journal
                }
            )
            monkeypatch.setattr(json, "dumps", dumps_in_commit)
            monkeypatch.setattr(wal_module, "encode_op", counting("in_commit"))
            try:
                return real_commit()
            finally:
                monkeypatch.setattr(json, "dumps", real_dumps)
                monkeypatch.setattr(wal_module, "encode_op", real_encode_op)

        manager.commit = commit
        app = TestApiIntegration()._app(manager)
        annotations = AnnotationDocument(doc_id="r1", text="fever and cough")
        annotations.add_textbound("Symptom", 0, 5)
        app.register_report(
            {"_id": "r1", "title": "t", "text": "fever and cough"},
            annotations=annotations,
        )
        response = app.handle(
            "POST",
            "/review/claims/r1:T1/decision",
            body={"reviewer": "ann", "verdict": "accept"},
        )
        assert response.ok, response.body

        assert [sorted(ops) for ops in journaled] == [
            ["docstore", "review"],
            ["review"],
        ]
        assert encodes == {
            "docstore": sum(len(ops.get("docstore", ())) for ops in journaled),
            "review": sum(len(ops["review"]) for ops in journaled),
            "in_commit": 0,
        }
        records = manager.wal.replay().records
        assert len(records) == len(journaled)
        for record, ops in zip(records, journaled):
            for name, entries in ops.items():
                assert all(isinstance(entry, bytes) for entry in entries)
                assert [json.loads(e) for e in entries] == record["ops"][name]
        kinds = [
            [op["op"] for op in record["ops"][name]]
            for record in records
            for name in sorted(record["ops"])
        ]
        assert kinds == [["ensure", "insert"], ["enqueue"], ["decide"]]


class TestAtomicWrite:
    def test_writes_and_returns_path(self, tmp_path):
        target = tmp_path / "out.txt"
        assert atomic_write(target, "hello") == target
        assert target.read_text() == "hello"

    def test_replaces_existing_content(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old")
        atomic_write(target, "new")
        assert target.read_text() == "new"

    def test_no_temp_files_left_behind(self, tmp_path):
        atomic_write(tmp_path / "a.txt", b"bytes too")
        assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]


class TestCommitProtocol:
    def test_ack_after_fsync_with_group_commit(self):
        manager, store = _attached_manager(
            MemFS(), group_commit=3
        )
        lsns = []
        for i in range(2):
            _ingest(store, f"d{i}")
            lsns.append(manager.commit())
        # Two commits buffered, group of three not reached: unacked.
        assert all(lsn > manager.durable_lsn for lsn in lsns)
        _ingest(store, "d2")
        manager.commit()
        assert manager.durable_lsn == 3  # group filled -> one fsync
        assert manager.stats()["counters"]["fsyncs"] == 1

    def test_commit_without_changes_is_none(self):
        manager, *_ = _attached_manager(MemFS())
        assert manager.commit() is None

    def test_failed_flush_poisons_manager(self):
        fs = FaultInjector(MemFS(), kind="io_fsync", at_op=1, seed=0)
        manager, store = _attached_manager(fs)
        _ingest(store, "d0")
        with pytest.raises(DurabilityError):
            manager.commit()
        assert manager.durable_lsn == 0
        with pytest.raises(DurabilityError, match="poisoned"):
            manager.commit()


class TestRecovery:
    def test_snapshot_plus_wal_equals_memory(self):
        fs = MemFS()
        manager, store = _attached_manager(
            fs, snapshot_every=2
        )
        for i in range(5):  # snapshots at 2 and 4, WAL tail holds 5
            _ingest(store, f"d{i}")
            manager.commit()
        manager.flush()
        live = _reports(store)

        recovered, r_store = _attached_manager(fs)
        report = recovered.recover()
        assert report.snapshot_loaded
        assert report.snapshot_lsn == 4
        assert report.records_replayed == 1
        assert _reports(r_store) == live
        assert recovered.durable_lsn == manager.durable_lsn

    def test_recovery_without_any_files(self):
        manager, store = _attached_manager(MemFS())
        report = manager.recover()
        assert not report.snapshot_loaded
        assert report.records_replayed == 0
        assert len(store.collection("reports")) == 0

    def test_crash_loses_no_acknowledged_documents(self):
        mem = MemFS()
        fs = FaultInjector(mem, kind="crash", at_op=4, seed=3)
        manager, store = _attached_manager(fs)
        acked = []
        with pytest.raises(InjectedCrash):
            for i in range(10):
                _ingest(store, f"d{i}")
                lsn = manager.commit()
                if lsn is not None and lsn <= manager.durable_lsn:
                    acked.append(f"d{i}")
        assert acked  # the schedule acknowledges some docs before dying
        recovered, r_store = _attached_manager(mem)
        recovered.recover()
        recovered_ids = {doc["_id"] for doc in r_store.collection("reports")}
        assert set(acked) <= recovered_ids

    def test_search_works_after_recovery(self, demo_system):
        """The keyword index is derived from the recovered record."""
        trained, _ = demo_system
        fs = MemFS()
        live, recovered = (
            CreatePipeline(trained.extractor, durability=DurabilityManager(fs))
            for _ in range(2)
        )
        live.app.register_report(
            {"_id": "d0", "title": "t", "text": "acute renal failure"}
        )
        recovered.recover()
        hits = recovered.indexer.engine.search("renal")
        assert [hit.doc_id for hit in hits] == ["d0"]

    def test_snapshot_checksum_mismatch_raises(self):
        fs = MemFS()
        manager, store = _attached_manager(fs)
        _ingest(store, "d0")
        manager.commit()
        manager.snapshot()
        payload = json.loads(fs.read_bytes("snapshot.json"))
        payload["stores"]["docstore"]["collections"] = {}
        fs.remove("snapshot.json")
        fs.append("snapshot.json", json.dumps(payload).encode())
        fs.fsync("snapshot.json")
        with pytest.raises(DurabilityError, match="checksum"):
            load_snapshot(fs)


class TestFaultInjector:
    def test_same_seed_same_torn_prefix(self):
        def run(seed):
            mem = MemFS()
            fs = FaultInjector(mem, kind="torn", at_op=2, seed=seed)
            manager, store = _attached_manager(fs)
            with pytest.raises(InjectedCrash):
                for i in range(5):
                    _ingest(store, f"d{i}")
                    manager.commit()
            return mem.read_bytes("wal.log") if mem.exists("wal.log") else b""

        assert run(7) == run(7)

    def test_fault_fires_once(self):
        fs = FaultInjector(MemFS(), kind="io_append", at_op=0, seed=0)
        with pytest.raises(OSError):
            fs.append("f", b"abc")
        fs.append("f", b"xyz")  # second call passes through
        assert fs.fired


class TestOsFileSystem:
    def test_wal_on_real_files(self, tmp_path):
        fs = OsFileSystem(tmp_path)
        manager, store = _attached_manager(fs)
        _ingest(store, "d0")
        manager.commit()
        manager.snapshot()
        _ingest(store, "d1")
        manager.commit()
        fs.close()

        fs2 = OsFileSystem(tmp_path)
        recovered, r_store = _attached_manager(fs2)
        report = recovered.recover()
        assert report.snapshot_loaded
        assert _reports(r_store) == _reports(store)
        fs2.close()


class TestApiIntegration:
    def _app(self, manager=None):
        store = DocumentStore()
        indexer = CreateIrIndexer()
        app = CreateApplication(
            store=store,
            indexer=indexer,
            searcher=CreateIrSearcher(indexer),
            durability=manager,
        )
        if manager is not None:
            manager.attach("docstore", store)
            manager.attach("review", app.review)
        return app

    def test_stats_without_durability_has_no_section(self):
        response = self._app().handle("GET", "/stats")
        assert "durability" not in response.body

    def test_stats_reports_wal_health(self):
        manager = DurabilityManager(MemFS())
        app = self._app(manager)
        app.register_report({"_id": "r1", "title": "t", "text": "fever"})
        response = app.handle("GET", "/stats")
        section = response.body["durability"]
        assert section["durable_lsn"] == 1
        assert section["counters"]["commits"] == 1
        assert section["counters"]["fsyncs"] == 1
        assert "p99" in section.get("commit_latency", {"p99": None})

    def test_register_report_is_one_commit(self):
        manager = DurabilityManager(MemFS())
        app = self._app(manager)
        app.register_report({"_id": "r1", "title": "t", "text": "fever"})
        app.handle("DELETE", "/reports/r1")
        stats = manager.stats()
        assert stats["counters"]["commits"] == 2  # ingest + delete
        assert stats["durable_lsn"] == 2


class TestPipelineIntegration:
    def test_recover_without_manager_raises(self, demo_system):
        pipeline, _ = demo_system
        assert pipeline.durability is None
        with pytest.raises(PipelineError):
            pipeline.recover()


class TestPoisonDiagnostics:
    def test_poison_message_names_path_and_durable_lsn(self):
        """Operators need the failing WAL location and the last
        durable LSN to act; the message must carry both."""
        fs = FaultInjector(MemFS(), kind="io_fsync", at_op=3, seed=0)
        manager, store = _attached_manager(fs)
        _ingest(store, "d0")
        manager.commit()  # lsn 1 fsyncs fine (ops 0,1)
        _ingest(store, "d1")
        with pytest.raises(DurabilityError):
            manager.commit()  # fsync fails at op 3
        with pytest.raises(
            DurabilityError,
            match=r"wal\.log.*last durable LSN 1",
        ):
            manager.commit()

    def test_poison_message_includes_fs_root_when_real(self, tmp_path):
        fs = OsFileSystem(tmp_path)
        manager, store = _attached_manager(fs)
        manager._failed = True  # poison directly; no real disk fault
        with pytest.raises(DurabilityError) as excinfo:
            manager.commit()
        message = str(excinfo.value)
        assert str(tmp_path) in message
        assert "wal.log" in message
        assert "last durable LSN 0" in message
        fs.close()
