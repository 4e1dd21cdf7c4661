"""Serving-layer oracles: sharded-vs-unsharded equivalence and cache
coherence.

One generated case drives the same index/delete/query workload through
a :class:`~repro.serving.engine.ShardedSearchEngine` and a plain
:class:`~repro.search.engine.SearchEngine` and verifies:

* **Rank equivalence** — every query returns the same documents with
  the same scores in the same order from both engines, at every shard
  count.  This is the claim that makes sharding an implementation
  detail rather than a semantic change.
* **Cache determinism** — asking the same query twice in a row (a
  guaranteed cache hit) returns exactly the first answer.
* **Cache coherence (metamorphic)** — after a mutation batch, queries
  must match a *cold* unsharded engine built by replaying the full op
  stream from scratch: a stale cached answer surviving an epoch bump
  would diverge here.
"""

from __future__ import annotations

from repro.search.engine import SearchEngine
from repro.serving.engine import ShardedSearchEngine
from repro.testing.lockstep import (
    apply_ops,
    compare_queries,
    compare_rankings,
    field_analyzers,
    positive_ints,
    search_once,
    valid_workload,
)


def _valid_case(case: dict) -> bool:
    """Structural validation; shrunk cases may violate any of this."""
    return (
        valid_workload(case)
        and positive_ints(case, "n_shards", "cache_size")
        and case["n_shards"] <= 16
    )


def check_serving_case(case: dict) -> str | None:
    """Run one serving workload; ``None`` means all invariants held
    (or the case was structurally malformed — vacuous)."""
    if not _valid_case(case):
        return None
    analyzers = field_analyzers(case)
    sharded = ShardedSearchEngine(
        case["n_shards"], analyzers, cache_size=case["cache_size"]
    )
    reference = SearchEngine(analyzers)

    message = apply_ops(case["ops"], sharded, reference)
    if message is not None:
        return message

    # Rank equivalence + guaranteed-hit cache determinism.
    for query in case["queries"]:
        want = search_once(reference, query)
        got = search_once(sharded, query)
        message = compare_rankings(query, got, want, "warm")
        if message is not None:
            return message
        again = search_once(sharded, query)
        if again != got:
            return (
                f"cache hit not deterministic for {query!r}: "
                f"first {got!r}, second {again!r}"
            )

    # Mutate, then check against a COLD engine replaying everything:
    # a stale cache entry surviving its epoch bump diverges here.
    message = apply_ops(case["mutations"], sharded, reference)
    if message is not None:
        return message
    cold = SearchEngine(analyzers)
    apply_ops(case["ops"] + case["mutations"], cold)
    message = compare_queries(
        case["post_queries"] + case["queries"], sharded, cold, "post-mutation"
    )
    if message is not None:
        return message

    # Structural cache health: bounded, and consistent counters.
    if sharded.cache is not None:
        stats = sharded.cache.stats()
        if stats["entries"] > stats["capacity"]:
            return f"cache exceeded capacity: {stats!r}"
        if stats["hits"] + stats["misses"] < len(case["queries"]):
            return f"cache counters undercount lookups: {stats!r}"
    return None
