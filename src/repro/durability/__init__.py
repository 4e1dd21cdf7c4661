"""Crash-consistent durability: WAL, snapshots, and fault injection.

The paper's stack keeps every artifact in MongoDB / Neo4j /
ElasticSearch; our pure-Python substitutes are in-memory, so this
package gives them the missing property — a crash loses nothing that
was acknowledged.  One :class:`DurabilityManager` journals logical
operations from the document store, the property graph, and the search
engine into a shared checksummed write-ahead log with group-commit
batching and periodic snapshots; recovery replays the log and yields
exactly the state at the last acknowledged commit, with each
document's three-store footprint appearing atomically or not at all.

:class:`FaultInjector` and :class:`MemFS` make that claim testable:
seed-driven crash schedules (torn writes, short writes, dropped
fsyncs, mid-commit kills) drive the ``durability`` subsystem of the
differential fuzz harness.
"""

from repro.durability.fs import (
    FaultInjector,
    InjectedCrash,
    MemFS,
    OsFileSystem,
    atomic_write,
    fs_write_atomic,
)
from repro.durability.manager import Durable, DurabilityManager, RecoveryReport
from repro.durability.snapshot import SNAPSHOT_NAME, load_snapshot, write_snapshot
from repro.durability.wal import (
    ReplayResult,
    WriteAheadLog,
    encode_record,
    scan_records,
)

__all__ = [
    "Durable",
    "DurabilityManager",
    "FaultInjector",
    "InjectedCrash",
    "MemFS",
    "OsFileSystem",
    "RecoveryReport",
    "ReplayResult",
    "SNAPSHOT_NAME",
    "WriteAheadLog",
    "atomic_write",
    "encode_record",
    "fs_write_atomic",
    "load_snapshot",
    "scan_records",
    "write_snapshot",
]
