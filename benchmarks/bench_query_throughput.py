"""Sharded serving throughput: fan-out speedup and cache hit rates.

Three series over the same 400-report corpus and query set:

* **Shard sweep** (cold cache): query throughput of the sharded engine
  at 1/2/4/8 partitions vs the classic unsharded engine, with the
  per-query results asserted identical — the speedup must not come
  from answering a different question.
* **Warm cache at 4 shards**: the acceptance bar — >= 2x the unsharded
  engine's throughput once the epoch-stamped cache is serving repeats.
* **Hit-rate sweep**: a skewed query mix (a few hot queries, a long
  tail) against cache capacity, reporting measured hit rate.
"""

from __future__ import annotations

import random
import time

from conftest import write_result

from repro.search.analysis import (
    CREATE_IR_ANALYZER_CONFIG,
    STANDARD_ANALYZER_CONFIG,
)
from repro.search.engine import create_ir_engine
from repro.serving import ShardedSearchEngine

SHARD_COUNTS = [1, 2, 4, 8]
N_QUERIES = 400
N_DISTINCT = 40
WARM_PASSES = 3


def _documents(ir_corpus):
    return [
        (report.report_id, {"title": report.title, "body": report.text})
        for report in ir_corpus
    ]


def _queries(ir_corpus):
    """Distinct keyword queries drawn from corpus symptom mentions."""
    rng = random.Random(23)
    distinct = []
    for report in ir_corpus:
        spans = report.annotations.spans_with_label("Sign_symptom")
        if spans:
            distinct.append(spans[0].text)
        if len(distinct) >= N_DISTINCT:
            break
    # Skewed mix: hot head + uniform tail, fixed length for every run.
    mix = []
    for _ in range(N_QUERIES):
        if rng.random() < 0.6:
            mix.append(distinct[rng.randrange(4)])
        else:
            mix.append(distinct[rng.randrange(len(distinct))])
    return distinct, mix


def _build_sharded(documents, n_shards, cache_size):
    engine = ShardedSearchEngine(
        n_shards,
        {
            "body": CREATE_IR_ANALYZER_CONFIG,
            "title": STANDARD_ANALYZER_CONFIG,
        },
        cache_size=cache_size,
    )
    for doc_id, fields in documents:
        engine.index(doc_id, fields)
    return engine


def _qps(engine, queries) -> float:
    start = time.perf_counter()
    for query in queries:
        engine.search(query, size=10)
    return len(queries) / (time.perf_counter() - start)


def test_query_throughput(ir_corpus):
    documents = _documents(ir_corpus)
    distinct, mix = _queries(ir_corpus)
    assert len(distinct) == N_DISTINCT

    unsharded = create_ir_engine()
    for doc_id, fields in documents:
        unsharded.index(doc_id, fields)
    base_qps = _qps(unsharded, mix)

    # -- shard sweep, cold cache (cache disabled entirely) ------------------
    lines = [
        f"Sharded query serving ({len(documents)} docs, "
        f"{len(mix)} queries, {N_DISTINCT} distinct)",
        f"{'configuration':<26}{'qps':>10}{'vs unsharded':>14}",
        f"{'unsharded':<26}{base_qps:>10.0f}{1.0:>13.2f}x",
    ]
    sweep = {}
    reference_answers = [
        [(h.doc_id, h.score) for h in unsharded.search(q, size=10)]
        for q in distinct
    ]
    for n_shards in SHARD_COUNTS:
        sharded = _build_sharded(documents, n_shards, cache_size=1)
        sharded.cache = None  # cold series: measure pure fan-out
        answers = [
            [(h.doc_id, h.score) for h in sharded.search(q, size=10)]
            for q in distinct
        ]
        assert answers == reference_answers, (
            f"{n_shards}-shard results diverged from unsharded"
        )
        qps = _qps(sharded, mix)
        sweep[n_shards] = qps
        lines.append(
            f"{f'{n_shards} shards (cold)':<26}{qps:>10.0f}"
            f"{qps / base_qps:>13.2f}x"
        )

    # -- warm cache at 4 shards (the acceptance bar) ------------------------
    warm = _build_sharded(documents, 4, cache_size=2 * N_DISTINCT)
    _qps(warm, mix)  # warm-up pass fills the cache
    warm_qps = min(_qps(warm, mix) for _ in range(WARM_PASSES))
    warm_speedup = warm_qps / base_qps
    hit_rate = warm.cache.stats()["hit_rate"]
    lines.append(
        f"{'4 shards (warm cache)':<26}{warm_qps:>10.0f}"
        f"{warm_speedup:>13.2f}x  (hit rate {hit_rate:.2f})"
    )

    # -- cache hit-rate sweep over capacity ---------------------------------
    lines.append("")
    lines.append(f"{'cache capacity':<26}{'hit rate':>10}{'qps':>10}")
    capacity_sweep = {}
    for capacity in [2, 8, 16, 40, 80]:
        engine = _build_sharded(documents, 4, cache_size=capacity)
        _qps(engine, mix)
        engine.cache.hits = engine.cache.misses = 0
        qps = _qps(engine, mix)
        rate = engine.cache.stats()["hit_rate"]
        capacity_sweep[capacity] = rate
        lines.append(f"{capacity:<26}{rate:>10.2f}{qps:>10.0f}")

    write_result("bench_query_throughput", lines)

    # Monotone-ish capacity -> hit rate (full capacity must beat tiny).
    assert capacity_sweep[80] > capacity_sweep[2]
    # Acceptance: >= 2x unsharded throughput at 4 shards on warm cache.
    assert warm_speedup >= 2.0, (
        f"warm-cache 4-shard serving only {warm_speedup:.2f}x unsharded "
        f"({warm_qps:.0f} vs {base_qps:.0f} qps)"
    )
