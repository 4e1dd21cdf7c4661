"""Replication oracles: crash-and-promote schedules under steady reads.

One generated case drives an interleaved write/read workload through a
:class:`~repro.serving.replica.ReplicatedShardedSearchEngine` whose
victim shard's WAL filesystem carries a seed-driven
:class:`~repro.durability.fs.FaultInjector`, while a plain
:class:`~repro.search.engine.SearchEngine` applies the same ops in
lockstep as the **no-crash oracle**.  The invariants:

* **No stale-epoch reads.**  After *every* action — including the one
  that crashed a primary mid-commit and forced a promotion — every
  query answers exactly like the oracle.  A cache entry surviving a
  promotion epoch bump, or a read served by a lagging replica, shows
  up as a ranking divergence here.
* **No torn reads.**  Replicas apply only whole acknowledged WAL
  records, and promotion replays with torn-tail truncation; a partial
  record leaking into any serving copy diverges from the oracle.
* **Post-promotion convergence.**  Failed ops are retried against the
  promoted primary (they are idempotent), so the final tier state must
  equal the no-crash oracle's — checked by query equivalence, document
  counts, and (after a forced ship) canonical per-shard state equality
  between every replica and its primary.
"""

from __future__ import annotations

from repro.durability.fs import InjectedCrash, MemFS
from repro.exceptions import DurabilityError, ReplicaError
from repro.search.engine import SearchEngine
from repro.serving.replica import ReplicatedShardedSearchEngine
from repro.testing.crash import _engine_state, fault_fs, valid_fault
from repro.testing.generators import _REPLICATION_FAULTS
from repro.testing.lockstep import (
    apply_ops,
    compare_queries,
    field_analyzers,
    positive_ints,
    search_once,
    valid_ops,
)
from repro.testing.oracles import ANALYZER_CONFIGS


def _valid_case(case: dict) -> bool:
    """Structural validation; shrunk cases may violate any of this."""
    if not isinstance(case, dict) or not positive_ints(
        case, "n_shards", "n_replicas", "cache_size", "ship_every"
    ):
        return False
    if case["n_shards"] > 8 or case["n_replicas"] > 4:
        return False
    if case.get("snapshot_every") is not None and not positive_ints(
        case, "snapshot_every"
    ):
        return False
    if case.get("analyzer") not in ANALYZER_CONFIGS:
        return False
    if not case.get("actions") or not valid_ops(case["actions"]):
        return False
    if not isinstance(case.get("queries"), list) or not case["queries"]:
        return False
    crash = case.get("crash")
    if not valid_fault(crash, _REPLICATION_FAULTS):
        return False
    return crash is None or all(
        isinstance(crash.get(key), int) and crash[key] >= 0
        for key in ("at_action", "shard")
    )


def check_replication_case(case: dict) -> str | None:
    """Run one crash-promotion schedule; ``None`` means all invariants
    held (or the case was structurally malformed — vacuous)."""
    if not _valid_case(case):
        return None
    analyzers = field_analyzers(case)
    crash = case["crash"]
    crash_shard = None
    injector = None
    if crash is not None:
        crash_shard = crash["shard"] % case["n_shards"]
        if crash["kind"] != "kill":
            injector = fault_fs(MemFS(), crash)

    def fs_factory(shard_id: int):
        if injector is not None and shard_id == crash_shard:
            return injector
        return MemFS()

    tier = ReplicatedShardedSearchEngine(
        case["n_shards"],
        n_replicas=case["n_replicas"],
        field_analyzers=analyzers,
        cache_size=case["cache_size"],
        ship_every=case["ship_every"],
        snapshot_every=case["snapshot_every"],
        fs_factory=fs_factory,
        executor_mode="serial",
    )
    oracle = SearchEngine(analyzers)

    killed = False
    for action_index, op in enumerate(case["actions"]):
        if (
            crash is not None
            and crash["kind"] == "kill"
            and action_index == crash["at_action"]
            and not killed
        ):
            # Fail-stop between commits; the next op (or read) routed
            # to this shard must fail over and promote transparently.
            tier.crash_primary(crash_shard)
            killed = True
        try:
            apply_ops([op], tier)
        except (InjectedCrash, DurabilityError, ReplicaError):
            # The commit died mid-flight on the injected shard.  Only
            # the harness boundary may catch an InjectedCrash: declare
            # the primary dead, promote from surviving bytes, and
            # retry the (idempotent) op on the promoted primary.
            tier.crash_primary(crash_shard)
            tier.promote(crash_shard)
            apply_ops([op], tier)
        # The oracle never crashes: it is the no-crash reference.
        apply_ops([op], oracle)

        # Steady reads: every action is followed by the full query
        # batch, so reads race shipping lag, epoch bumps, and the
        # promotion itself.
        message = compare_queries(
            case["queries"], tier, oracle, f"after action {action_index}"
        )
        if message is not None:
            return message

    if tier.n_documents != oracle.n_documents:
        return (
            f"doc count diverged from no-crash oracle: "
            f"{tier.n_documents} vs {oracle.n_documents}"
        )

    # Cache-hit determinism on the final state.
    for query in case["queries"]:
        first = search_once(tier, query)
        second = search_once(tier, query)
        if first != second:
            return (
                f"cache hit not deterministic for {query!r}: "
                f"first {first!r}, second {second!r}"
            )

    # Convergence: after a forced ship every replica must be
    # canonically identical to its shard's primary.
    tier.ship_all()
    for shard_id, replica_set in enumerate(tier.sets):
        want_state = _engine_state(replica_set.primary)
        for replica_index, replica in enumerate(replica_set.replicas):
            got_state = _engine_state(replica.store)
            if got_state != want_state:
                return (
                    f"shard {shard_id} replica {replica_index} diverged "
                    f"from its primary after ship (lag "
                    f"{replica_set.lag_lsns()!r})"
                )
        if replica_set.lag_lsns() != [0] * len(replica_set.replicas):
            return (
                f"shard {shard_id} still lagging after ship_all: "
                f"{replica_set.lag_lsns()!r}"
            )

    # Structural cache health.
    if tier.cache is not None:
        stats = tier.cache.stats()
        if stats["entries"] > stats["capacity"]:
            return f"cache exceeded capacity: {stats!r}"
    return None
