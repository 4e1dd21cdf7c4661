"""Sharded serving: routing, caching, fan-out merge, durability."""

from __future__ import annotations

import pytest

from repro.durability import DurabilityManager, MemFS
from repro.exceptions import ReproError, SearchError
from repro.graphdb import PropertyGraph
from repro.ir import CreateIrIndexer, CreateIrSearcher
from repro.search.engine import SearchEngine, create_ir_engine
from repro.serving import (
    QueryCache,
    ShardRouter,
    ShardedSearchEngine,
)

def _engine(n_shards, **kwargs):
    from repro.search.analysis import (
        CREATE_IR_ANALYZER_CONFIG,
        STANDARD_ANALYZER_CONFIG,
    )

    return ShardedSearchEngine(
        n_shards,
        {
            "body": CREATE_IR_ANALYZER_CONFIG,
            "title": STANDARD_ANALYZER_CONFIG,
        },
        **kwargs,
    )


# -- router ------------------------------------------------------------------


def test_router_routing_is_stable_and_bumps_epochs():
    router = ShardRouter(4)
    assert router.shard_of("pmid-1") == router.shard_of("pmid-1")
    assert all(0 <= router.shard_of(f"d{i}") < 4 for i in range(50))
    shard = router.shard_of("pmid-1")
    before = router.epochs()
    router.bump_for("pmid-1")
    after = router.epochs()
    assert after[shard] == before[shard] + 1
    assert [a for i, a in enumerate(after) if i != shard] == [
        a for i, a in enumerate(before) if i != shard
    ]


def test_router_rejects_bad_shard_count():
    with pytest.raises(ReproError):
        ShardRouter(0)


def test_router_spreads_documents_across_shards():
    router = ShardRouter(4)
    owners = {router.shard_of(f"doc-{i:04d}") for i in range(200)}
    assert owners == {0, 1, 2, 3}


# -- cache -------------------------------------------------------------------


def test_cache_hit_miss_and_epoch_invalidation():
    epochs = [0, 0]
    cache = QueryCache(4, lambda: tuple(epochs))
    assert cache.get("q") is None
    cache.put("q", [1, 2])
    assert cache.get("q") == [1, 2]
    epochs[1] += 1  # any shard mutation invalidates
    assert cache.get("q") is None
    stats = cache.stats()
    assert stats["stale_drops"] == 1
    assert stats["hits"] == 1
    assert stats["misses"] == 2


def test_cache_lru_eviction_order():
    cache = QueryCache(2, lambda: (0,))
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # refresh a; b is now LRU
    cache.put("c", 3)
    assert cache.get("b") is None
    assert cache.get("a") == 1
    assert cache.get("c") == 3
    assert cache.stats()["evictions"] == 1


def test_cache_rejects_bad_capacity():
    with pytest.raises(ReproError):
        QueryCache(0, lambda: (0,))


def test_cache_put_racing_epoch_bump_is_stale_on_arrival():
    # A fan-out captures the epoch vector, computes results, and only
    # then stores them.  If a mutation lands in between, the entry must
    # be stamped with the *captured* vector so it can never be served.
    epochs = [0, 0]
    cache = QueryCache(4, lambda: tuple(epochs))
    stamp = tuple(epochs)  # captured before the (slow) fan-out
    epochs[0] += 1  # a write races the query computation
    cache.put("q", ["stale-results"], stamp=stamp)
    assert cache.get("q") is None
    assert cache.stats()["stale_drops"] == 1
    # A fresh computation under the new vector caches normally.
    cache.put("q", ["fresh-results"], stamp=tuple(epochs))
    assert cache.get("q") == ["fresh-results"]


def test_cache_put_default_stamp_is_current_vector():
    epochs = [0]
    cache = QueryCache(4, lambda: tuple(epochs))
    cache.put("q", [1])
    assert cache.get("q") == [1]


# -- sharded engine: exactness -----------------------------------------------


def test_topk_merge_tie_break_matches_unsharded_doc_id_order():
    """Equal BM25 scores across different shards must still come back
    in the unsharded engine's (-score, doc_id) order."""
    sharded = _engine(4, cache_size=4)
    reference = create_ir_engine()
    # Identical bodies -> identical scores; ids chosen to hash to
    # different shards (verified below).
    doc_ids = [f"tie-{i:02d}" for i in range(12)]
    for doc_id in doc_ids:
        fields = {"title": doc_id, "body": "fever cough fever"}
        sharded.index(doc_id, fields)
        reference.index(doc_id, fields)
    assert len({sharded.router.shard_of(d) for d in doc_ids}) > 1
    got = sharded.search("fever", size=12)
    want = reference.search("fever", size=12)
    scores = {hit.score for hit in want}
    assert len(scores) == 1  # the tie is real
    assert [hit.doc_id for hit in got] == [hit.doc_id for hit in want]
    assert [hit.doc_id for hit in got] == sorted(doc_ids)


def test_sharded_engine_matches_unsharded_on_mixed_ops():
    sharded = _engine(3, cache_size=8)
    reference = create_ir_engine()
    docs = {
        f"d{i}": f"fever cough dyspnea word{i} chest pain"[: 10 + 3 * i]
        for i in range(20)
    }
    for doc_id, body in docs.items():
        sharded.index(doc_id, {"title": doc_id, "body": body})
        reference.index(doc_id, {"title": doc_id, "body": body})
    assert sharded.delete("d3") is reference.delete("d3") is True
    assert sharded.delete("absent") is reference.delete("absent") is False
    for query in ["fever", "chest pain", {"match_phrase": {"body": "fever cough"}}]:
        got = sharded.search(query, size=10)
        want = reference.search(query, size=10)
        assert [(h.doc_id, h.score) for h in got] == [
            (h.doc_id, h.score) for h in want
        ]


def test_cache_invalidation_on_delete_then_reinsert_same_id():
    """A reinserted doc id must be served with its NEW content; the
    pre-delete cached answer may not survive either mutation."""
    sharded = _engine(2, cache_size=8)
    sharded.index("doc-a", {"title": "a", "body": "fever fever fever"})
    sharded.index("doc-b", {"title": "b", "body": "cough"})
    first = sharded.search("fever", size=5)
    assert [h.doc_id for h in first] == ["doc-a"]
    assert sharded.delete("doc-a")
    assert [h.doc_id for h in sharded.search("fever", size=5)] == []
    sharded.index("doc-a", {"title": "a", "body": "cough cough"})
    assert [h.doc_id for h in sharded.search("fever", size=5)] == []
    hits = sharded.search("cough", size=5)
    assert {h.doc_id for h in hits} == {"doc-a", "doc-b"}
    assert sharded.cache.stats()["stale_drops"] >= 1


def test_engine_highlight_routes_to_owning_shard_and_stats_shape():
    sharded = _engine(3, cache_size=4)
    sharded.index("h1", {"title": "t", "body": "acute renal failure"})
    assert sharded.highlight("h1", "body", "renal")
    assert sharded.explain_terms("body", "fever") == sharded.shard(
        1
    ).explain_terms("body", "fever")
    stats = sharded.stats()
    assert stats["n_shards"] == 3
    assert len(stats["epochs"]) == 3
    assert sum(stats["shard_documents"]) == 1
    assert stats["cache"]["capacity"] == 4


def test_engine_rejects_router_shard_mismatch():
    with pytest.raises(SearchError):
        ShardedSearchEngine(3, router=ShardRouter(2))


# -- durability through the facade -------------------------------------------


def test_sharded_durability_recovery_round_trip():
    mem = MemFS()
    manager = DurabilityManager(mem)
    engine = _engine(3)
    graph = PropertyGraph()
    manager.attach("graph", graph)
    manager.attach("index", engine)
    for i in range(8):
        doc_id = f"doc-{i}"
        engine.index(doc_id, {"title": doc_id, "body": f"fever cough w{i}"})
        graph.add_node(f"{doc_id}:T1", doc_id=doc_id, entityType="Sign_symptom")
        manager.commit()
    engine.delete("doc-3")
    manager.commit()
    manager.flush()
    manager.snapshot()
    engine.index("doc-9", {"title": "d9", "body": "dyspnea"})
    manager.commit()
    manager.flush()

    recovered_engine = _engine(3)
    recovered_graph = PropertyGraph()
    recovery = DurabilityManager(mem)
    recovery.attach("graph", recovered_graph)
    recovery.attach("index", recovered_engine)
    report = recovery.recover()
    assert report.snapshot_loaded
    assert recovered_engine.n_documents == engine.n_documents == 8
    assert recovered_graph.n_nodes == graph.n_nodes == 8
    for query in ["fever", "dyspnea"]:
        assert [
            (h.doc_id, h.score) for h in recovered_engine.search(query)
        ] == [(h.doc_id, h.score) for h in engine.search(query)]


def test_restore_rejects_shard_count_mismatch():
    engine = _engine(2)
    engine.index("d1", {"title": "t", "body": "fever"})
    state = engine.durable_snapshot()
    with pytest.raises(SearchError):
        _engine(3).durable_restore(state)


# -- cache under concurrent epoch bumps & empty shards (robustness) ----------


def test_mutation_during_fanout_never_caches_stale():
    """End-to-end stamp-before-fan-out race: a write that lands while
    shards are computing must make the in-flight entry stale on
    arrival, so the next identical query recomputes and sees the
    write."""
    engine = _engine(2, cache_size=8)
    for i in range(6):
        engine.index(f"d{i}", {"body": f"fever report {i}", "title": ""})

    shard = engine.shards[0]
    original = shard.search
    fired = []

    def racing_search(query, size=10):
        if not fired:
            fired.append(True)
            # A write races the fan-out AFTER the stamp was captured.
            engine.index("d100", {"body": "late fever arrival", "title": ""})
        return original(query, size=size)

    shard.search = racing_search
    engine.search("fever", size=10)
    shard.search = original

    # The raced entry must have been dropped at put time; this search
    # is a cache miss that recomputes under the new epoch vector.
    second = [hit.doc_id for hit in engine.search("fever", size=10)]
    assert "d100" in second
    assert engine.cache.stats()["stale_drops"] >= 1


def test_ir_searcher_cache_honours_both_store_epochs(small_corpus):
    """``CreateIrSearcher.cache``: a hit replays the first answer; a
    graph-only and a keyword-only mutation each force a miss; a write
    landing between stamp and ``put`` is stale on arrival."""
    indexer = CreateIrIndexer()
    for report in small_corpus[:10]:
        indexer.index_annotation_document(
            report.report_id, report.title, report.annotations
        )
    searcher = CreateIrSearcher(indexer)
    cache = searcher.cache = QueryCache(8, indexer.epochs)
    query = "fever and chest pain"
    assert searcher.search(query) == searcher.search(query)
    indexer.graph.remove_node(next(indexer.graph.nodes()).node_id)
    searcher.search(query)
    indexer.engine.index("kw-only", {"title": "", "body": "cough"})
    searcher.search(query)
    assert (cache.hits, cache.stale_drops) == (1, 2)

    original = indexer.engine.search

    def racing_search(engine_query, size=10):
        indexer.engine.search = original
        hits = original(engine_query, size=size)
        indexer.engine.index("late", {"title": "", "body": "chest pain"})
        return hits

    indexer.engine.search = racing_search
    raced = searcher.search("chest pain", size=50)
    assert "late" not in [result.doc_id for result in raced]
    fresh = searcher.search("chest pain", size=50)
    assert "late" in [result.doc_id for result in fresh]
    assert cache.stale_drops == 3


def test_concurrent_epoch_bumps_from_threads_keep_cache_coherent():
    """Hammer searches and writes from threads; every post-quiescence
    query must reflect every write (no stale entry survives)."""
    import threading

    engine = _engine(2, cache_size=16)
    for i in range(4):
        engine.index(f"d{i}", {"body": "fever cough", "title": ""})

    errors = []

    def writer():
        try:
            for i in range(20):
                engine.index(
                    f"w{i}", {"body": "fever injected", "title": ""}
                )
        except Exception as exc:  # pragma: no cover - fails the test
            errors.append(exc)

    def reader():
        try:
            for _ in range(30):
                engine.search("fever", size=50)
        except Exception as exc:  # pragma: no cover - fails the test
            errors.append(exc)

    threads = [threading.Thread(target=writer)] + [
        threading.Thread(target=reader) for _ in range(2)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []

    final = {hit.doc_id for hit in engine.search("fever", size=100)}
    assert {f"w{i}" for i in range(20)} <= final


def test_zero_document_shard_fans_out_and_scores_exactly():
    """A shard holding no documents must not perturb routing, global
    BM25 statistics, or the merged ranking."""
    engine = _engine(3, cache_size=4)
    assert engine.search("fever", size=5) == []  # all shards empty

    # Stack every document on one shard; the other two stay empty.
    target = engine.router.shard_of("d0")
    doc_ids = ["d0"]
    for i in range(1, 40):
        if engine.router.shard_of(f"d{i}") == target:
            doc_ids.append(f"d{i}")
        if len(doc_ids) == 5:
            break
    from repro.search.analysis import (
        CREATE_IR_ANALYZER_CONFIG,
        STANDARD_ANALYZER_CONFIG,
    )

    reference = SearchEngine(
        {
            "body": CREATE_IR_ANALYZER_CONFIG,
            "title": STANDARD_ANALYZER_CONFIG,
        }
    )
    for n, doc_id in enumerate(doc_ids):
        fields = {"body": f"fever chest pain {n}", "title": ""}
        engine.index(doc_id, fields)
        reference.index(doc_id, fields)
    empties = [s for i, s in enumerate(engine.shards) if i != target]
    assert all(shard.n_documents == 0 for shard in empties)

    got = engine.search("fever pain", size=10)
    want = reference.search({"match": {"body": "fever pain"}}, size=10)
    assert [(h.doc_id, h.score) for h in got] == [
        (h.doc_id, h.score) for h in want
    ]
