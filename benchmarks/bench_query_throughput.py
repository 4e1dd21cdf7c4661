"""CREATe-IR result cache: repeated-query throughput and hit rates.

The whole Figure-6 flow — query parse, graph match, BM25, fusion —
through one :class:`CreateIrSearcher` over a 400-report gold index,
with and without ``searcher.cache = QueryCache(n, indexer.epochs)``,
on a skewed query mix (a few hot queries, a long tail):

* **Identity first**: every distinct query answers the same from the
  cached searcher (cold and warm) as from the uncached one — the
  speedup must not come from answering a different question.
* **Warm cache**: the acceptance bar — >= 2x the uncached searcher's
  throughput once the epoch-stamped cache is serving repeats.
* **Hit-rate sweep**: cache capacity against measured hit rate.
"""

from __future__ import annotations

import random
import time

from conftest import write_result

from repro.corpus.queries import make_query_workload
from repro.ir import CreateIrSearcher, QueryCache, QueryParser

N_QUERIES = 400
N_DISTINCT = 40
WARM_PASSES = 3


def _queries(ir_corpus):
    """Distinct Figure-6 query strings and a skewed mix over them."""
    distinct = list(
        dict.fromkeys(
            query.text
            for query in make_query_workload(
                ir_corpus, n_queries=3 * N_DISTINCT, seed=23
            )
        )
    )[:N_DISTINCT]
    # Hot head + uniform tail, fixed length for every run.
    rng = random.Random(23)
    mix = []
    for _ in range(N_QUERIES):
        if rng.random() < 0.6:
            mix.append(distinct[rng.randrange(4)])
        else:
            mix.append(distinct[rng.randrange(len(distinct))])
    return distinct, mix


def _qps(searcher, queries) -> float:
    start = time.perf_counter()
    for query in queries:
        searcher.search(query, size=10)
    return len(queries) / (time.perf_counter() - start)


def test_query_throughput(ir_corpus, gold_ir_index, trained_extractor):
    distinct, mix = _queries(ir_corpus)
    assert len(distinct) == N_DISTINCT
    parser = QueryParser(trained_extractor.ner, trained_extractor.temporal)

    def searcher(capacity=None):
        built = CreateIrSearcher(gold_ir_index, parser=parser)
        if capacity is not None:
            built.cache = QueryCache(capacity, gold_ir_index.epochs)
        return built

    uncached = searcher()
    reference = [uncached.search(query, size=10) for query in distinct]
    assert any(
        result.engine == "graph" for results in reference for result in results
    )
    warm = searcher(2 * N_DISTINCT)
    for label in ("cold", "warm"):
        answers = [warm.search(query, size=10) for query in distinct]
        assert answers == reference, f"{label} cache diverged from uncached"
    assert warm.cache.hits == N_DISTINCT

    base_qps = _qps(uncached, mix)
    warm_qps = min(_qps(warm, mix) for _ in range(WARM_PASSES))
    warm_speedup = warm_qps / base_qps
    lines = [
        f"CREATe-IR result cache ({gold_ir_index.n_reports} reports, "
        f"{len(mix)} queries, {N_DISTINCT} distinct)",
        f"{'configuration':<26}{'qps':>10}{'vs uncached':>14}",
        f"{'uncached':<26}{base_qps:>10.0f}{1.0:>13.2f}x",
        f"{'warm cache':<26}{warm_qps:>10.0f}{warm_speedup:>13.2f}x",
        "",
        f"{'cache capacity':<26}{'hit rate':>10}{'qps':>10}",
    ]

    capacity_sweep = {}
    for capacity in [2, 8, 16, 40, 80]:
        swept = searcher(capacity)
        _qps(swept, mix)
        swept.cache.hits = swept.cache.misses = 0
        qps = _qps(swept, mix)
        rate = swept.cache.stats()["hit_rate"]
        capacity_sweep[capacity] = rate
        lines.append(f"{capacity:<26}{rate:>10.2f}{qps:>10.0f}")

    write_result("bench_query_throughput", lines)

    # Monotone-ish capacity -> hit rate (full capacity must beat tiny).
    assert capacity_sweep[80] > capacity_sweep[2]
    # Acceptance: >= 2x the uncached searcher on a warm cache.
    assert warm_speedup >= 2.0, (
        f"warm-cache search only {warm_speedup:.2f}x uncached "
        f"({warm_qps:.0f} vs {base_qps:.0f} qps)"
    )
