"""Sharded keyword serving: one fan-out core (parallel per-shard search
with exact top-k merge and an invalidation-correct query cache), its
process-pool segment tier and its replicated tier with WAL-shipped
failover."""

from repro.serving.cache import QueryCache
from repro.serving.engine import ShardedSearchEngine
from repro.serving.replica import (
    ReplicatedShardedSearchEngine,
    ShardReplicaSet,
)
from repro.serving.router import ShardRouter
from repro.serving.segment_shards import ProcessShardedSegmentEngine

__all__ = [
    "ProcessShardedSegmentEngine",
    "QueryCache",
    "ReplicatedShardedSearchEngine",
    "ShardReplicaSet",
    "ShardRouter",
    "ShardedSearchEngine",
]
