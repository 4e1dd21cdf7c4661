"""Tests for temporal relation extraction: algebra, graph, models."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.corpus.datasets import make_temporal_dataset
from repro.corpus.timeline import ClinicalEvent, dense_relation, interval_relation
from repro.exceptions import TemporalInconsistencyError
from repro.temporal.classifier import TemporalClassifier
from repro.temporal.global_inference import global_inference
from repro.temporal.graph import TemporalGraph
from repro.temporal.psl import PslConfig, find_triples, fit_with_psl, psl_loss_and_grad
from repro.temporal.relations import (
    DENSE_ALGEBRA,
    THREE_WAY_ALGEBRA,
    algebra_for_labels,
)


class TestAlgebra:
    def test_inverses(self):
        assert THREE_WAY_ALGEBRA.inverse("BEFORE") == "AFTER"
        assert THREE_WAY_ALGEBRA.inverse("OVERLAP") == "OVERLAP"
        assert DENSE_ALGEBRA.inverse("INCLUDES") == "IS_INCLUDED"

    def test_paper_figure5_chain(self):
        # b BEFORE d, d BEFORE e, e OVERLAP f  =>  b BEFORE f.
        alg = THREE_WAY_ALGEBRA
        bd_de = alg.compose("BEFORE", "BEFORE")
        assert bd_de == "BEFORE"
        assert alg.compose(bd_de, "OVERLAP") == "BEFORE"

    def test_symmetric_closure(self):
        assert THREE_WAY_ALGEBRA.compose("OVERLAP", "AFTER") == "AFTER"
        assert THREE_WAY_ALGEBRA.compose("AFTER", "OVERLAP") == "AFTER"

    def test_undefined_composition(self):
        assert THREE_WAY_ALGEBRA.compose("BEFORE", "AFTER") is None

    def test_consistent(self):
        assert THREE_WAY_ALGEBRA.consistent("BEFORE", "BEFORE", "BEFORE")
        assert not THREE_WAY_ALGEBRA.consistent("BEFORE", "BEFORE", "AFTER")
        assert THREE_WAY_ALGEBRA.consistent("BEFORE", "AFTER", "OVERLAP")

    def test_algebra_for_labels(self):
        assert algebra_for_labels(("BEFORE", "AFTER")) is THREE_WAY_ALGEBRA
        assert algebra_for_labels(("SIMULTANEOUS", "VAGUE")) is DENSE_ALGEBRA
        with pytest.raises(ValueError):
            algebra_for_labels(("WEIRD",))

    @settings(max_examples=50, deadline=None)
    @given(
        st.tuples(
            st.floats(0, 10), st.floats(0.1, 3),
            st.floats(0, 10), st.floats(0.1, 3),
            st.floats(0, 10), st.floats(0.1, 3),
        )
    )
    def test_three_way_rules_sound_for_midpoint_semantics(self, params):
        sa, da, sb, db, sc, dc = params
        a = ClinicalEvent("a", "a", "S", sa, sa + da)
        b = ClinicalEvent("b", "b", "S", sb, sb + db)
        c = ClinicalEvent("c", "c", "S", sc, sc + dc)
        r_ab = interval_relation(a, b)
        r_bc = interval_relation(b, c)
        entailed = THREE_WAY_ALGEBRA.compose(r_ab, r_bc)
        if entailed is not None:
            assert interval_relation(a, c) == entailed

    @settings(max_examples=50, deadline=None)
    @given(
        st.tuples(
            st.floats(0, 10), st.floats(0.1, 3),
            st.floats(0, 10), st.floats(0.1, 3),
            st.floats(0, 10), st.floats(0.1, 3),
        )
    )
    def test_dense_rules_sound_for_interval_semantics(self, params):
        sa, da, sb, db, sc, dc = params
        a = ClinicalEvent("a", "a", "S", sa, sa + da)
        b = ClinicalEvent("b", "b", "S", sb, sb + db)
        c = ClinicalEvent("c", "c", "S", sc, sc + dc)
        r_ab = dense_relation(a, b)
        r_bc = dense_relation(b, c)
        entailed = DENSE_ALGEBRA.compose(r_ab, r_bc)
        if entailed is not None and entailed != "VAGUE":
            assert dense_relation(a, c) == entailed


class TestTemporalGraph:
    def test_direction_normalization(self):
        graph = TemporalGraph()
        graph.add("b", "a", "AFTER")
        assert graph.relation("a", "b") == "BEFORE"
        assert graph.relation("b", "a") == "AFTER"

    def test_contradiction_rejected(self):
        graph = TemporalGraph()
        graph.add("a", "b", "BEFORE")
        with pytest.raises(TemporalInconsistencyError):
            graph.add("a", "b", "OVERLAP")

    def test_duplicate_consistent_ok(self):
        graph = TemporalGraph()
        graph.add("a", "b", "BEFORE")
        graph.add("b", "a", "AFTER")
        assert graph.n_relations == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            TemporalGraph().add("a", "a", "BEFORE")

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            TemporalGraph().add("a", "b", "WEIRD")

    def test_closure_infers_figure5(self):
        graph = TemporalGraph()
        graph.add("b", "d", "BEFORE")
        graph.add("e", "d", "AFTER")
        graph.add("e", "f", "OVERLAP")
        inferred = graph.close()
        assert inferred >= 1
        assert graph.relation("b", "f") == "BEFORE"
        assert graph.n_inferred == inferred
        assert graph.n_explicit == 3

    def test_closure_detects_global_contradiction(self):
        graph = TemporalGraph()
        graph.add("a", "b", "BEFORE")
        graph.add("b", "c", "BEFORE")
        graph.add("c", "a", "BEFORE")
        with pytest.raises(TemporalInconsistencyError):
            graph.close()

    def test_is_consistent_non_destructive(self):
        graph = TemporalGraph()
        graph.add("a", "b", "BEFORE")
        graph.add("b", "c", "BEFORE")
        n_before = graph.n_relations
        assert graph.is_consistent()
        assert graph.n_relations == n_before

    def test_events_and_edges(self):
        graph = TemporalGraph()
        graph.add("a", "b", "OVERLAP")
        assert graph.events() == ["a", "b"]
        assert graph.edges() == [("a", "b", "OVERLAP")]


@pytest.fixture(scope="module")
def tiny_temporal():
    return make_temporal_dataset("i2b2-2012-like", n_train=25, n_test=10, seed=1)


class TestClassifier:
    def test_learns_above_majority(self, tiny_temporal):
        ds = tiny_temporal
        model = TemporalClassifier(epochs=10).fit(ds.train)
        score = model.evaluate(ds.test)
        gold = [p.label for d in ds.test for p in d.pairs]
        majority = max(set(gold), key=gold.count)
        baseline = gold.count(majority) / len(gold)
        assert score.f1 > baseline

    def test_proba_shape(self, tiny_temporal):
        ds = tiny_temporal
        model = TemporalClassifier(epochs=5).fit(ds.train)
        probs = model.predict_proba_doc(ds.test[0])
        assert probs.shape == (len(ds.test[0].pairs), len(model.labels))
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_evaluate_with_external_predictions(self, tiny_temporal):
        ds = tiny_temporal
        model = TemporalClassifier(epochs=5).fit(ds.train)
        gold_predictions = [[p.label for p in d.pairs] for d in ds.test]
        assert model.evaluate(ds.test, predictions=gold_predictions).f1 == 1.0

    def test_unfitted_raises(self, tiny_temporal):
        from repro.exceptions import NotFittedError

        with pytest.raises(NotFittedError):
            TemporalClassifier().predict_proba_doc(tiny_temporal.test[0])

    def test_single_label_rejected(self):
        from repro.exceptions import ModelError

        with pytest.raises(ModelError):
            TemporalClassifier().init_labels([])


class TestPsl:
    def test_find_triples(self, tiny_temporal):
        doc = tiny_temporal.train[0]
        triples = find_triples(doc)
        index = {(p.src_id, p.tgt_id): i for i, p in enumerate(doc.pairs)}
        for i_ab, i_bc, i_ac in triples:
            ab = doc.pairs[i_ab]
            bc = doc.pairs[i_bc]
            ac = doc.pairs[i_ac]
            assert ab.tgt_id == bc.src_id
            assert ac.src_id == ab.src_id
            assert ac.tgt_id == bc.tgt_id
        assert triples  # dense pair sets always ground some rules

    def test_find_triples_keeps_the_all_pairs_scan_order(self, tiny_temporal):
        for doc in tiny_temporal.train[:5]:
            index = {
                (p.src_id, p.tgt_id): i for i, p in enumerate(doc.pairs)
            }
            scan = [
                (i_ab, i_bc, index[(a, c)])
                for (a, b), i_ab in index.items()
                for (b2, c), i_bc in index.items()
                if b2 == b and c != a and (a, c) in index
            ]
            assert find_triples(doc) == scan

    def test_loss_zero_when_consistent(self):
        labels = ["BEFORE", "AFTER", "OVERLAP"]
        index = {label: i for i, label in enumerate(labels)}
        probs = np.zeros((3, 3))
        probs[0, index["BEFORE"]] = 1.0
        probs[1, index["BEFORE"]] = 1.0
        probs[2, index["BEFORE"]] = 1.0
        loss, grad = psl_loss_and_grad(
            probs, [(0, 1, 2)], THREE_WAY_ALGEBRA, index
        )
        assert loss == pytest.approx(0.0)
        assert np.allclose(grad, 0.0)

    def test_loss_positive_when_violated(self):
        labels = ["BEFORE", "AFTER", "OVERLAP"]
        index = {label: i for i, label in enumerate(labels)}
        probs = np.zeros((3, 3))
        probs[0, index["BEFORE"]] = 1.0
        probs[1, index["BEFORE"]] = 1.0
        probs[2, index["AFTER"]] = 1.0  # violates BEFORE°BEFORE->BEFORE
        loss, grad = psl_loss_and_grad(
            probs, [(0, 1, 2)], THREE_WAY_ALGEBRA, index
        )
        assert loss > 0
        # Gradient pushes the violated conclusion's probability up.
        assert grad[2, index["BEFORE"]] < 0

    def test_fit_with_psl_trains(self, tiny_temporal):
        ds = tiny_temporal
        model = fit_with_psl(
            TemporalClassifier(epochs=8),
            ds.train,
            THREE_WAY_ALGEBRA,
            PslConfig(weight=1.0, epochs=8),
        )
        assert model.evaluate(ds.test).f1 > 0.5


class TestGlobalInference:
    def test_enforces_transitivity(self, tiny_temporal):
        ds = tiny_temporal
        model = TemporalClassifier(epochs=8).fit(ds.train)
        labels = model.labels
        index = {label: i for i, label in enumerate(labels)}
        for doc in ds.test[:4]:
            probs = model.predict_proba_doc(doc)
            assignment = global_inference(doc, probs, labels, THREE_WAY_ALGEBRA)
            for i_ab, i_bc, i_ac in find_triples(doc):
                entailed = THREE_WAY_ALGEBRA.compose(
                    assignment[i_ab], assignment[i_bc]
                )
                if entailed is not None and entailed in index:
                    assert assignment[i_ac] == entailed

    @staticmethod
    def _windowed_doc(n_events, window):
        """Events e0..e(n-1), a pair for every two at most ``window``
        apart in narrative order (what ``ClinicalExtractor`` builds)."""
        from repro.annotation.model import AnnotationDocument
        from repro.corpus.datasets import TemporalDocument, TemporalInstance

        events = [f"e{i}" for i in range(n_events)]
        pairs = [
            TemporalInstance("d", events[i], events[j], "BEFORE", j - i)
            for i in range(n_events)
            for j in range(i + 1, min(i + 1 + window, n_events))
        ]
        return TemporalDocument(
            "d", AnnotationDocument(doc_id="d", text=""), events, pairs
        )

    @pytest.mark.parametrize(
        "algebra, n_events, window",
        [(THREE_WAY_ALGEBRA, 5, 2), (THREE_WAY_ALGEBRA, 4, 3),
         (DENSE_ALGEBRA, 4, 3)],
        ids=["three-7pairs", "three-6pairs", "dense-6pairs"],
    )
    def test_equals_brute_force_map(self, algebra, n_events, window):
        from repro.testing.oracles import brute_force_map

        doc = self._windowed_doc(n_events, window)
        pairs = [(pair.src_id, pair.tgt_id) for pair in doc.pairs]
        labels = list(algebra.labels)
        rng = np.random.default_rng(20210419)
        cases = {"argmax consistent": 0, "argmax repaired": 0}
        same_time = "OVERLAP" if "OVERLAP" in labels else "SIMULTANEOUS"
        for _case in range(30):
            # Noise around a consistent truth (events at random time
            # points), so that the argmax is consistent in some cases
            # and not in others.
            times = dict(zip(doc.event_order, rng.integers(0, 3, n_events)))
            probs = rng.dirichlet(np.ones(len(labels)), size=len(pairs))
            for row, (a, b) in zip(probs, pairs):
                truth = (
                    "BEFORE" if times[a] < times[b]
                    else "AFTER" if times[a] > times[b]
                    else same_time
                )
                row[labels.index(truth)] += 0.5
            probs /= probs.sum(axis=1, keepdims=True)
            _best, optima = brute_force_map(pairs, probs, labels, algebra)
            assert len(optima) == 1
            local = tuple(labels[i] for i in np.argmax(probs, axis=1))
            got = global_inference(doc, probs, labels, algebra)
            assert tuple(got) == optima[0]
            if local == optima[0]:
                cases["argmax consistent"] += 1
            else:
                cases["argmax repaired"] += 1
        assert min(cases.values()) >= 3, cases

    def test_tied_row_returns_one_of_the_optima(self):
        from repro.testing.oracles import brute_force_map

        doc = self._windowed_doc(4, 3)
        pairs = [(pair.src_id, pair.tgt_id) for pair in doc.pairs]
        labels = list(THREE_WAY_ALGEBRA.labels)
        # Every pair BEFORE (consistent), but e0-e1 ties BEFORE with
        # OVERLAP: the argmax is one of two optima, not *the* optimum.
        probs = np.tile([0.8, 0.05, 0.15], (len(pairs), 1))
        probs[0] = [0.45, 0.1, 0.45]
        _best, optima = brute_force_map(
            pairs, probs, labels, THREE_WAY_ALGEBRA
        )
        assert len(optima) == 2
        got = global_inference(doc, probs, labels, THREE_WAY_ALGEBRA)
        assert tuple(got) in optima

    def test_empty_doc(self):
        from repro.annotation.model import AnnotationDocument
        from repro.corpus.datasets import TemporalDocument

        doc = TemporalDocument(
            "d", AnnotationDocument(doc_id="d", text=""), [], []
        )
        assert global_inference(
            doc, np.zeros((0, 3)), ["A", "B", "C"], THREE_WAY_ALGEBRA
        ) == []

    def test_no_triples_returns_local(self, tiny_temporal):
        from repro.annotation.model import AnnotationDocument
        from repro.corpus.datasets import TemporalDocument, TemporalInstance

        ann = AnnotationDocument(doc_id="d", text="a b")
        t1 = ann.add_textbound("Sign_symptom", 0, 1)
        t2 = ann.add_textbound("Sign_symptom", 2, 3)
        doc = TemporalDocument(
            "d",
            ann,
            [t1.ann_id, t2.ann_id],
            [TemporalInstance("d", t1.ann_id, t2.ann_id, "BEFORE", 1)],
        )
        probs = np.array([[0.1, 0.2, 0.7]])
        out = global_inference(doc, probs, ["A", "B", "C"], THREE_WAY_ALGEBRA)
        assert out == ["C"]
