"""The CREATe-IR result cache: LRU behaviour, epoch validation, and
coherence with an uncached searcher over the same stores."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ReproError
from repro.ir import CreateIrIndexer, CreateIrSearcher, QueryCache, QueryParser

# -- cache -------------------------------------------------------------------


def test_cache_hit_miss_and_epoch_invalidation():
    epochs = [0, 0]
    cache = QueryCache(4, lambda: tuple(epochs))
    assert cache.get("q") is None
    cache.put("q", [1, 2])
    assert cache.get("q") == [1, 2]
    epochs[1] += 1  # a mutation of either store invalidates
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
    # A search captures the epochs, computes results, and only then
    # stores them.  If a mutation lands in between, the entry must be
    # stamped with the *captured* epochs so it can never be served.
    epochs = [0, 0]
    cache = QueryCache(4, lambda: tuple(epochs))
    stamp = tuple(epochs)  # captured before the (slow) search
    epochs[0] += 1  # a write races the query computation
    cache.put("q", ["stale-results"], stamp=stamp)
    assert cache.get("q") is None
    assert cache.stats()["stale_drops"] == 1
    # A fresh computation under the new epochs caches normally.
    cache.put("q", ["fresh-results"], stamp=tuple(epochs))
    assert cache.get("q") == ["fresh-results"]


def test_cache_put_default_stamp_is_current_vector():
    epochs = [0]
    cache = QueryCache(4, lambda: tuple(epochs))
    cache.put("q", [1])
    assert cache.get("q") == [1]


# -- the searcher's cache ----------------------------------------------------


def test_ir_searcher_cache_honours_both_store_epochs(small_corpus):
    """``CreateIrSearcher.cache``: a hit replays the first answer; a
    graph-only and a keyword-only mutation each force a miss; a write
    landing between stamp and ``put`` is stale on arrival."""
    indexer = CreateIrIndexer()
    for report in small_corpus[:10]:
        indexer.index_annotation_document(
            report.report_id, report.annotations
        )
    searcher = CreateIrSearcher(indexer)
    cache = searcher.cache = QueryCache(8, indexer.epochs)
    query = "fever and chest pain"
    assert searcher.search(query) == searcher.search(query)
    indexer.graph.remove_node(next(indexer.graph.nodes()).node_id)
    searcher.search(query)
    indexer.engine.index("kw-only", "cough")
    searcher.search(query)
    assert (cache.hits, cache.stale_drops) == (1, 2)

    original = indexer.engine.search

    def racing_search(engine_query, size=10):
        indexer.engine.search = original
        hits = original(engine_query, size=size)
        indexer.engine.index("late", "chest pain")
        return hits

    indexer.engine.search = racing_search
    raced = searcher.search("chest pain", size=50)
    assert "late" not in [result.doc_id for result in raced]
    fresh = searcher.search("chest pain", size=50)
    assert "late" in [result.doc_id for result in fresh]
    assert cache.stale_drops == 3


# Graph-led, graph-led, keyword-only (no concept the parser extracts).
_QUERIES = ("fever and chest pain", "admitted with dyspnea", "fever")
_KEYWORD_BODIES = (
    "chest pain and fever on admission",
    "productive cough",
    "dyspnea on exertion",
    "unrelated note",
)
_STEP = st.tuples(
    st.sampled_from(("index", "delete", "keyword", "query")),
    st.integers(0, 3),
    st.sampled_from(_QUERIES),
)


def test_cached_searcher_answers_like_an_uncached_one(
    small_corpus, demo_system
):
    """Whatever the interleaving of report indexing, report deletion,
    keyword-only writes and repeated string queries, a searcher with a
    cache answers every query exactly like one without, over the same
    indexer, at any capacity."""
    extractor = demo_system[0].extractor
    parser = QueryParser(extractor.ner, extractor.temporal)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        st.sampled_from((1, 2, 8)), st.lists(_STEP, min_size=2, max_size=12)
    )
    def check(capacity, steps):
        indexer = CreateIrIndexer()
        cached = CreateIrSearcher(indexer, parser=parser)
        cached.cache = QueryCache(capacity, indexer.epochs)
        uncached = CreateIrSearcher(indexer, parser=parser)
        for action, slot, query in steps:
            report = small_corpus[slot]
            if action == "index":
                indexer.delete_report(report.report_id)
                indexer.index_annotation_document(
                    report.report_id, report.annotations
                )
            elif action == "delete":
                indexer.delete_report(report.report_id)
            elif action == "keyword":
                indexer.engine.index(f"kw-{slot}", _KEYWORD_BODIES[slot])
            assert cached.search(query) == uncached.search(query), action
            assert len(cached.cache) <= capacity

    check()
