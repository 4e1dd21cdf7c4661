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


# Found by: the mutate-vs-rebuild postings-order invariant (ISSUE 6).
# ``InvertedIndex.add_document`` appended postings at the tail, so
# adding a document with an ordinal below an existing one left postings
# out of doc-ord order, making score accumulation order diverge from a
# cold rebuild.  Re-indexing d0 keeps its ordinal 0, below d1's.
POSTINGS_REINSERT_CASE = {
    "analyzer": "whitespace",
    "ops": [
        {"op": "index", "id": "d0", "text": "renal fever"},
        {"op": "index", "id": "d1", "text": "renal cough"},
        {"op": "index", "id": "d0", "text": "renal fever"},
    ],
    "queries": ["renal"],
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
        assert index.postings("renal") == [(1, 1), (2, 1)]
        index.add_document(0, tokens("renal"))
        assert index.postings("renal") == [(0, 1), (1, 1), (2, 1)]

