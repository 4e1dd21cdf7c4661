"""Shrunk fuzz cases checked in as regressions (ISSUE 2 satellite).

Each case below is the minimal reproducer the harness shrank a real
optimized-vs-oracle discrepancy down to.  They are replayed through
``repro.testing.check_case`` — which must now report agreement — plus
a direct assertion of the fixed behaviour, so the bug class stays dead
even if the harness itself changes.
"""

from repro.graphdb.graph import PropertyGraph
from repro.graphdb.match import (
    EdgePattern,
    GraphPattern,
    NodePattern,
    match_pattern,
)
from repro.search.engine import SearchEngine
from repro.testing import check_case

# Found by: python -m repro.testing --subsystem graph --seed 0 (case #2).
# match_pattern never enforced self-loop pattern edges (source var ==
# target var): every candidate node matched, looped or not.
SELF_LOOP_CASE = {
    "nodes": [["n0", {"entityType": "Sign_symptom"}]],
    "edges": [],
    "pattern_nodes": [["v0", {}]],
    "pattern_edges": [["v0", "v0", None, True]],
    "limit": None,
    "index_property": False,
}

# Found by: python -m repro.testing --subsystem invariants --seed 0
# (case #1, check_phrase_self_match).  match_phrase collapsed analyzed
# query positions to strict adjacency, so documents whose text contains
# a stopword gap ("pain was patient") never matched their own phrase.
PHRASE_GAP_CASE = {
    "search": {
        "analyzer": "standard",
        "ops": [
            {
                "op": "index",
                "id": "d1",
                "fields": {"body": "pain was patient", "title": ""},
            }
        ],
        "queries": [{"match_phrase": {"body": "pain was patient"}}],
    },
    "fusion": {"graph_ranked": [], "keyword_ranked": [], "size": 3},
    "shuffle_seed": 2086105126,
}


class TestSelfLoopPatternRegression:
    def test_harness_agrees(self):
        assert check_case("graph", SELF_LOOP_CASE) is None

    def test_direct_behaviour(self):
        graph = PropertyGraph()
        graph.add_node("n1")
        graph.add_node("n2")
        graph.add_edge("n1", "n1", "SELF")
        pattern = GraphPattern(
            [NodePattern("a")], [EdgePattern("a", "a", label="SELF")]
        )
        assert [
            binding["a"].node_id
            for binding in match_pattern(graph, pattern)
        ] == ["n1"]

    def test_no_loops_no_matches(self):
        graph = PropertyGraph()
        graph.add_node("n1")
        pattern = GraphPattern(
            [NodePattern("a")], [EdgePattern("a", "a")]
        )
        assert match_pattern(graph, pattern) == []


class TestPhraseGapRegression:
    def test_harness_agrees(self):
        assert check_case("invariants", PHRASE_GAP_CASE) is None
        assert check_case("search", PHRASE_GAP_CASE["search"]) is None

    def test_direct_behaviour(self):
        engine = SearchEngine()
        engine.index("d1", {"body": "pain was patient"})
        hits = engine.search({"match_phrase": {"body": "pain was patient"}})
        assert [hit.doc_id for hit in hits] == ["d1"]


# Found by: the mutate-vs-rebuild postings-order invariant (ISSUE 6).
# ``InvertedIndex.add_document`` appended postings at the tail, so
# adding a document with an ordinal below an existing one (the
# delete-then-reinsert path segment sealing relies on) left postings
# out of doc-ord order — breaking delta-encoded packing and making
# score accumulation order diverge from a cold rebuild.
POSTINGS_REINSERT_CASE = {
    "analyzer": "whitespace",
    "ops": [
        {
            "op": "index",
            "id": "d0",
            "fields": {"body": "renal fever", "title": ""},
        },
        {
            "op": "index",
            "id": "d1",
            "fields": {"body": "renal cough", "title": ""},
        },
        {"op": "delete", "id": "d0"},
        {
            "op": "index",
            "id": "d0",
            "fields": {"body": "renal fever", "title": ""},
        },
    ],
    "queries": [{"match": {"body": "renal"}}],
}


class TestPostingsOrderRegression:
    def test_harness_agrees(self):
        assert check_case("search", POSTINGS_REINSERT_CASE) is None

    def test_direct_behaviour(self):
        from repro.search.analysis import AnalyzedToken
        from repro.search.inverted_index import InvertedIndex

        def tokens(*terms):
            return [
                AnalyzedToken(term, i, i, i + 1)
                for i, term in enumerate(terms)
            ]

        index = InvertedIndex()
        index.add_document(1, tokens("renal"))
        index.add_document(2, tokens("renal"))
        # Re-adding a lower ordinal must insert at its sorted slot, not
        # the tail.
        index.add_document(1, tokens("renal", "fever"))
        assert [p.doc_ord for p in index.postings("renal")] == [1, 2]
        index.add_document(0, tokens("renal"))
        assert [p.doc_ord for p in index.postings("renal")] == [0, 1, 2]


# Found by: python -m repro.testing --subsystem segments --cases 800
# --seed 11 (case #565, "manifest reopen lost ordinal clock: 3 vs 4").
# ``SegmentSearchEngine.flush`` returned before writing the manifest
# when the buffer was empty, so the ordinal consumed by a document
# indexed and deleted while still buffered was handed out again after
# a reopen.
BUFFERED_DELETE_CLOCK_CASE = {
    "analyzer": "standard",
    "flush_threshold": 3,
    "merge_factor": 2,
    "ops": [
        {"op": "index", "id": "d6", "fields": {"body": "", "title": ""}},
        {"op": "delete", "id": "d6"},
    ],
    "queries": [],
    "mutations": [],
    "post_queries": [],
    "reopen": True,
}


class TestBufferedDeleteClockRegression:
    def test_harness_agrees(self):
        assert check_case("segments", BUFFERED_DELETE_CLOCK_CASE) is None

    def test_direct_behaviour(self, tmp_path):
        from repro.search.analysis import STANDARD_ANALYZER_CONFIG
        from repro.search.segment_engine import SegmentSearchEngine

        def open_engine():
            return SegmentSearchEngine(
                {"body": STANDARD_ANALYZER_CONFIG},
                segment_dir=tmp_path,
                flush_threshold=3,
            )

        engine = open_engine()
        engine.index("d6", {"body": "fever"})
        engine.delete("d6")
        assert engine.flush() is None  # nothing to seal ...
        engine.close()
        reopened = open_engine()
        try:
            # ... yet the consumed ordinal survives the reopen.
            assert reopened._next_ordinal == 1
            generation = reopened.generation
            assert reopened.flush() is None
            assert reopened.generation == generation  # clock not ahead
        finally:
            reopened.close()
