"""Unit tests of the reference oracles on hand-checked examples.

The oracles are only useful if they are obviously right; these tests
pin their behaviour on inputs small enough to verify by hand.
"""

import math

import numpy as np
import pytest

from repro.graphdb.graph import PropertyGraph
from repro.graphdb.match import EdgePattern, GraphPattern, NodePattern
from repro.ml import infer
from repro.temporal.relations import DENSE_ALGEBRA, THREE_WAY_ALGEBRA
from repro.testing.oracles import (
    ReferenceSearchEngine,
    brute_force_bindings,
    brute_force_map,
    exhaustive_decode,
    reference_closure,
    reference_fuse,
)


class TestReferenceSearchEngine:
    def test_hand_computed_bm25(self):
        engine = ReferenceSearchEngine(
            {"tokenizer": {"type": "whitespace"},
             "filter": ["lowercase"], "char_filter": []}
        )
        engine.index("d1", "fever fever cough")
        engine.index("d2", "cough")
        ranked = dict(engine.search("fever"))
        # N=2, df=1, idf=log(1 + 1.5/1.5)=log 2; tf=2, dl=3, avgdl=2.
        idf = math.log(2.0)
        denom = 2 + 1.2 * (1 - 0.75 + 0.75 * 3 / 2)
        expected = idf * 2 * 2.2 / denom
        assert ranked == {"d1": pytest.approx(expected)}

    def test_delete_refreshes_statistics(self):
        engine = ReferenceSearchEngine()
        engine.index("d1", "fever")
        engine.index("d2", "cough")
        assert engine.delete("d2") is True
        assert engine.delete("d2") is False
        assert engine.n_documents == 1
        # df/N now reflect only the surviving document.
        (doc_id, _score), = engine.search("fever")
        assert doc_id == "d1"


class TestBruteForceBindings:
    def _graph(self):
        g = PropertyGraph()
        g.add_node("n1", entityType="A")
        g.add_node("n2", entityType="A")
        g.add_node("n3", entityType="B")
        g.add_edge("n1", "n2", "R")
        g.add_edge("n1", "n2", "S")  # parallel edge
        g.add_edge("n3", "n3", "LOOP")  # self-loop
        return g

    def test_edge_label_filter(self):
        bindings = brute_force_bindings(
            self._graph(),
            GraphPattern(
                [NodePattern("a"), NodePattern("b")],
                [EdgePattern("a", "b", label="S")],
            ),
        )
        assert bindings == [{"a": "n1", "b": "n2"}]

    def test_self_loop_pattern(self):
        bindings = brute_force_bindings(
            self._graph(),
            GraphPattern(
                [NodePattern("a")], [EdgePattern("a", "a", label="LOOP")]
            ),
        )
        assert bindings == [{"a": "n3"}]

    def test_undirected_matches_both_orientations(self):
        bindings = brute_force_bindings(
            self._graph(),
            GraphPattern(
                [NodePattern("a"), NodePattern("b")],
                [EdgePattern("a", "b", label="R", directed=False)],
            ),
        )
        assert {frozenset(b.items()) for b in bindings} == {
            frozenset({("a", "n1"), ("b", "n2")}),
            frozenset({("a", "n2"), ("b", "n1")}),
        }

    def test_injective(self):
        g = PropertyGraph()
        g.add_node("n1")
        bindings = brute_force_bindings(
            g, GraphPattern([NodePattern("a"), NodePattern("b")])
        )
        assert bindings == []


class TestExhaustiveDecode:
    def test_agrees_with_viterbi_on_tiny_instance(self):
        emissions = [[1.0, 0.0], [0.0, 2.0]]
        transitions = [[0.5, -1.0], [0.0, 0.0]]
        start = [0.0, 0.0]
        end = [0.0, 1.0]
        best, path, log_z = exhaustive_decode(
            emissions, transitions, start, end
        )
        # Paths: (0,0)=1.5 (0,1)=3+1=... enumerate by hand:
        # (0,0): 1+0.5+0+0 = 1.5;  (0,1): 1-1+2+1 = 3.0
        # (1,0): 0+0+0+0 = 0.0;    (1,1): 0+0+2+1 = 3.0
        assert best == pytest.approx(3.0)
        assert path in ((0, 1), (1, 1))
        assert log_z == pytest.approx(
            math.log(sum(math.exp(s) for s in (1.5, 3.0, 0.0, 3.0)))
        )
        v_path, v_score = infer.viterbi(
            np.array(emissions),
            np.array(transitions),
            np.array(start),
            np.array(end),
        )
        assert v_score == pytest.approx(best)
        assert tuple(v_path) in ((0, 1), (1, 1))

    def test_empty_sequence(self):
        assert exhaustive_decode([], [[0.0]], [0.0], [0.0]) == (0.0, (), 0.0)


class TestReferenceClosure:
    def test_paper_figure5_chain(self):
        # "b before d, e after d, e simultaneous with f => b before f"
        status, relations = reference_closure(
            [["b", "d", "BEFORE"], ["e", "d", "AFTER"], ["e", "f", "OVERLAP"]],
            THREE_WAY_ALGEBRA,
        )
        assert status == "ok"
        assert relations[("b", "f")] == "BEFORE"

    def test_detects_contradiction(self):
        status, _reason = reference_closure(
            [["a", "b", "BEFORE"], ["b", "c", "BEFORE"], ["a", "c", "AFTER"]],
            THREE_WAY_ALGEBRA,
        )
        assert status == "inconsistent"

    def test_dense_includes_chain(self):
        status, relations = reference_closure(
            [["a", "b", "INCLUDES"], ["b", "c", "INCLUDES"]],
            DENSE_ALGEBRA,
        )
        assert status == "ok"
        assert relations[("a", "c")] == "INCLUDES"


class TestBruteForceMap:
    PAIRS = [("a", "b"), ("b", "c"), ("a", "c")]
    LABELS = ["BEFORE", "AFTER", "OVERLAP"]

    def test_repairs_the_cheapest_link(self):
        # argmax (BEFORE, BEFORE, AFTER) breaks BEFORE∘BEFORE -> BEFORE;
        # flipping a-c costs log(.4/.6), flipping a-b or b-c log(.05/.9).
        probs = [[0.9, 0.05, 0.05], [0.9, 0.05, 0.05], [0.4, 0.6, 0.0]]
        best, optima = brute_force_map(
            self.PAIRS, probs, self.LABELS, THREE_WAY_ALGEBRA
        )
        assert optima == [("BEFORE", "BEFORE", "BEFORE")]
        assert best == pytest.approx(2 * math.log(0.9) + math.log(0.4))

    def test_reports_every_tied_optimum(self):
        probs = [[0.5, 0.0, 0.5], [0.9, 0.05, 0.05], [0.9, 0.05, 0.05]]
        _best, optima = brute_force_map(
            self.PAIRS, probs, self.LABELS, THREE_WAY_ALGEBRA
        )
        assert sorted(optima) == [
            ("BEFORE", "BEFORE", "BEFORE"),
            ("OVERLAP", "BEFORE", "BEFORE"),
        ]

    def test_unentailed_compositions_constrain_nothing(self):
        # BEFORE then AFTER entails nothing about a-c.
        probs = [[0.9, 0.1, 0.0], [0.1, 0.9, 0.0], [0.0, 0.1, 0.9]]
        _best, optima = brute_force_map(
            self.PAIRS, probs, self.LABELS, THREE_WAY_ALGEBRA
        )
        assert optima == [("BEFORE", "AFTER", "OVERLAP")]


class TestReferenceFuse:
    def test_graph_block_first_then_keyword(self):
        fused = reference_fuse(
            [["d1", 1.0]], [["d2", 9.0], ["d1", 5.0]], size=3
        )
        assert fused == [("d1", 1.0, "graph"), ("d2", 9.0, "keyword")]

    def test_size_cap_and_tie_break(self):
        fused = reference_fuse(
            [["b", 1.0], ["a", 1.0], ["c", 2.0]], [], size=2
        )
        assert fused == [("c", 2.0, "graph"), ("a", 1.0, "graph")]
