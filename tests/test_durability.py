"""Tests for the durability subsystem: WAL, snapshots, recovery, faults."""

import json

import pytest

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
    encode_record,
    load_snapshot,
    scan_records,
)
from repro.exceptions import DurabilityError, PipelineError
from repro.graphdb.graph import PropertyGraph
from repro.ir.indexer import CreateIrIndexer
from repro.ir.searcher import CreateIrSearcher
from repro.search.engine import SearchEngine
from repro.testing.crash import canonical_state, visible_doc_ids


def _attached_manager(fs, **kwargs):
    store, graph, engine = DocumentStore(), PropertyGraph(), SearchEngine()
    manager = DurabilityManager(fs, **kwargs)
    manager.attach("docstore", store)
    manager.attach("graph", graph)
    manager.attach("index", engine)
    return manager, store, graph, engine


def _ingest(store, graph, engine, doc_id, text="fever and cough"):
    store.collection("reports").insert_one({"_id": doc_id, "text": text})
    graph.add_node(doc_id, entityType="Report")
    engine.index(doc_id, {"body": text})


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
            wal.append(record)
        wal.flush()
        assert WriteAheadLog(fs).replay().records == records

    def test_truncated_final_record_is_dropped(self):
        fs = MemFS()
        wal = WriteAheadLog(fs)
        wal.append({"lsn": 1})
        wal.append({"lsn": 2})
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
            wal.append({"lsn": lsn})
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

    def test_scan_rejects_bad_magic(self):
        result = scan_records(b"XXXX" + b"\x00" * 20)
        assert result.records == []
        assert result.torn


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
        manager, store, graph, engine = _attached_manager(
            MemFS(), group_commit=3
        )
        lsns = []
        for i in range(2):
            _ingest(store, graph, engine, f"d{i}")
            lsns.append(manager.commit())
        # Two commits buffered, group of three not reached: unacked.
        assert all(lsn > manager.durable_lsn for lsn in lsns)
        _ingest(store, graph, engine, "d2")
        manager.commit()
        assert manager.durable_lsn == 3  # group filled -> one fsync
        assert manager.stats()["counters"]["fsyncs"] == 1

    def test_commit_without_changes_is_none(self):
        manager, *_ = _attached_manager(MemFS())
        assert manager.commit() is None

    def test_failed_flush_poisons_manager(self):
        fs = FaultInjector(MemFS(), kind="io_fsync", at_op=1, seed=0)
        manager, store, graph, engine = _attached_manager(fs)
        _ingest(store, graph, engine, "d0")
        with pytest.raises(DurabilityError):
            manager.commit()
        assert manager.durable_lsn == 0
        with pytest.raises(DurabilityError, match="poisoned"):
            manager.commit()


class TestRecovery:
    def test_snapshot_plus_wal_equals_memory(self):
        fs = MemFS()
        manager, store, graph, engine = _attached_manager(
            fs, snapshot_every=2
        )
        for i in range(5):  # snapshots at 2 and 4, WAL tail holds 5
            _ingest(store, graph, engine, f"d{i}")
            manager.commit()
        manager.flush()
        live = canonical_state(store, graph, engine)

        recovered, r_store, r_graph, r_engine = _attached_manager(fs)
        report = recovered.recover()
        assert report.snapshot_loaded
        assert report.snapshot_lsn == 4
        assert report.records_replayed == 1
        assert canonical_state(r_store, r_graph, r_engine) == live
        assert recovered.durable_lsn == manager.durable_lsn

    def test_recovery_without_any_files(self):
        manager, store, graph, engine = _attached_manager(MemFS())
        report = manager.recover()
        assert not report.snapshot_loaded
        assert report.records_replayed == 0
        assert len(store.collection("reports")) == 0

    def test_crash_loses_no_acknowledged_documents(self):
        mem = MemFS()
        fs = FaultInjector(mem, kind="crash", at_op=4, seed=3)
        manager, store, graph, engine = _attached_manager(fs)
        acked = []
        with pytest.raises(InjectedCrash):
            for i in range(10):
                _ingest(store, graph, engine, f"d{i}")
                lsn = manager.commit()
                if lsn is not None and lsn <= manager.durable_lsn:
                    acked.append(f"d{i}")
        assert acked  # the schedule acknowledges some docs before dying
        recovered, r_store, r_graph, r_engine = _attached_manager(mem)
        recovered.recover()
        doc_ids, graph_ids, engine_ids = visible_doc_ids(
            r_store, r_graph, r_engine
        )
        assert doc_ids == graph_ids == engine_ids
        assert set(acked) <= doc_ids

    def test_search_works_after_recovery(self):
        fs = MemFS()
        manager, store, graph, engine = _attached_manager(fs)
        _ingest(store, graph, engine, "d0", text="acute renal failure")
        manager.commit()
        recovered, _, _, r_engine = _attached_manager(fs)
        recovered.recover()
        assert [h.doc_id for h in r_engine.search("renal")] == ["d0"]

    def test_snapshot_checksum_mismatch_raises(self):
        fs = MemFS()
        manager, store, graph, engine = _attached_manager(fs)
        _ingest(store, graph, engine, "d0")
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
            manager, store, graph, engine = _attached_manager(fs)
            with pytest.raises(InjectedCrash):
                for i in range(5):
                    _ingest(store, graph, engine, f"d{i}")
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
        manager, store, graph, engine = _attached_manager(fs)
        _ingest(store, graph, engine, "d0")
        manager.commit()
        manager.snapshot()
        _ingest(store, graph, engine, "d1")
        manager.commit()
        fs.close()

        fs2 = OsFileSystem(tmp_path)
        recovered, r_store, r_graph, r_engine = _attached_manager(fs2)
        report = recovered.recover()
        assert report.snapshot_loaded
        assert canonical_state(r_store, r_graph, r_engine) == canonical_state(
            store, graph, engine
        )
        fs2.close()


class TestApiIntegration:
    def _app(self, manager=None):
        store = DocumentStore()
        indexer = CreateIrIndexer()
        searcher = CreateIrSearcher(indexer)
        if manager is not None:
            manager.attach("docstore", store)
            manager.attach("graph", indexer.graph)
            manager.attach("index", indexer.engine)
        return CreateApplication(
            store=store,
            indexer=indexer,
            searcher=searcher,
            durability=manager,
        )

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
        manager, store, graph, engine = _attached_manager(fs)
        _ingest(store, graph, engine, "d0")
        manager.commit()  # lsn 1 fsyncs fine (ops 0,1)
        _ingest(store, graph, engine, "d1")
        with pytest.raises(DurabilityError):
            manager.commit()  # fsync fails at op 3
        with pytest.raises(
            DurabilityError,
            match=r"wal\.log.*last durable LSN 1",
        ):
            manager.commit()

    def test_poison_message_includes_fs_root_when_real(self, tmp_path):
        fs = OsFileSystem(tmp_path)
        manager, store, graph, engine = _attached_manager(fs)
        manager._failed = True  # poison directly; no real disk fault
        with pytest.raises(DurabilityError) as excinfo:
            manager.commit()
        message = str(excinfo.value)
        assert str(tmp_path) in message
        assert "wal.log" in message
        assert "last durable LSN 0" in message
        fs.close()
