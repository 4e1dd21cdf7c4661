"""Tests for the trainable models: CRF, perceptron, logistic regression."""

import numpy as np
import pytest

from repro.exceptions import ModelError, NotFittedError
from repro.ml.crf import LinearChainCRF
from repro.ml.features import FeatureHasher
from repro.ml.logistic import LogisticRegression, softmax
from repro.ml.perceptron import StructuredPerceptron
from repro.testing.oracles import (
    adam_step_reference,
    crf_fit_dense,
    reference_training,
    scipy_has_the_ported_logsumexp,
)

needs_ported_scipy = pytest.mark.skipif(
    not scipy_has_the_ported_logsumexp(),
    reason="the dense reference trains on this scipy's older logsumexp",
)

HASHER = FeatureHasher(n_features=1 << 12)


def feats(words):
    return [
        HASHER.indices_of([f"w={w}", f"suf={w[-2:]}", f"pre={w[:2]}"])
        for w in words
    ]


def toy_sequences(n_copies=15):
    xs = [
        feats(["fever", "and", "cough"]),
        feats(["no", "fever", "today"]),
        feats(["cough", "resolved", "fully"]),
    ] * n_copies
    ys = [
        ["B-S", "O", "B-S"],
        ["O", "B-S", "O"],
        ["B-S", "O", "O"],
    ] * n_copies
    return xs, ys


class TestLinearChainCRF:
    def test_learns_toy_task(self):
        xs, ys = toy_sequences()
        crf = LinearChainCRF(n_features=1 << 12, epochs=4).fit(xs, ys)
        assert crf.predict(feats(["fever", "and", "cough"])) == [
            "B-S",
            "O",
            "B-S",
        ]

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            LinearChainCRF().predict([np.array([1])])

    def test_empty_sequence_predicts_empty(self):
        xs, ys = toy_sequences(3)
        crf = LinearChainCRF(n_features=1 << 12, epochs=2).fit(xs, ys)
        assert crf.predict([]) == []

    def test_mismatched_inputs_rejected(self):
        with pytest.raises(ModelError):
            LinearChainCRF().fit([[np.array([1])]], [])

    def test_no_labels_rejected(self):
        with pytest.raises(ModelError):
            LinearChainCRF().fit([], [])

    def test_log_likelihood_nonpositive(self):
        xs, ys = toy_sequences(5)
        crf = LinearChainCRF(n_features=1 << 12, epochs=2).fit(xs, ys)
        ll = crf.sequence_log_likelihood(xs[0], ys[0])
        assert ll <= 1e-9

    def test_gold_likelihood_beats_wrong(self):
        xs, ys = toy_sequences()
        crf = LinearChainCRF(n_features=1 << 12, epochs=4).fit(xs, ys)
        good = crf.sequence_log_likelihood(xs[0], ys[0])
        bad = crf.sequence_log_likelihood(xs[0], ["O", "B-S", "O"])
        assert good > bad

    def test_predict_batch(self):
        xs, ys = toy_sequences(5)
        crf = LinearChainCRF(n_features=1 << 12, epochs=2).fit(xs, ys)
        out = crf.predict_batch(xs[:3])
        assert len(out) == 3

    def test_deterministic_given_seed(self):
        xs, ys = toy_sequences(5)
        a = LinearChainCRF(n_features=1 << 12, epochs=2, seed=5).fit(xs, ys)
        b = LinearChainCRF(n_features=1 << 12, epochs=2, seed=5).fit(xs, ys)
        assert a.predict(xs[0]) == b.predict(xs[0])


class TestStructuredPerceptron:
    def test_learns_toy_task(self):
        xs, ys = toy_sequences()
        model = StructuredPerceptron(n_features=1 << 12, epochs=5).fit(xs, ys)
        assert model.predict(feats(["no", "fever", "today"])) == [
            "O",
            "B-S",
            "O",
        ]

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            StructuredPerceptron().predict([np.array([0])])

    def test_empty_sequence(self):
        xs, ys = toy_sequences(3)
        model = StructuredPerceptron(n_features=1 << 12, epochs=2).fit(xs, ys)
        assert model.predict([]) == []

    def test_mismatch_rejected(self):
        with pytest.raises(ModelError):
            StructuredPerceptron().fit([], [["A"]])


class TestLogisticRegression:
    def _separable(self, n=120, d=64, seed=3):
        rng = np.random.default_rng(seed)
        from scipy import sparse

        x = sparse.csr_matrix(rng.normal(size=(n, d)))
        w = rng.normal(size=(d, 3))
        y = np.argmax(x @ w, axis=1)
        return x, np.asarray(y).ravel()

    def test_fits_separable_data(self):
        x, y = self._separable()
        model = LogisticRegression(3, x.shape[1]).fit(x, y, epochs=40)
        assert (model.predict(x) == y).mean() > 0.95

    def test_proba_rows_sum_to_one(self):
        x, y = self._separable()
        model = LogisticRegression(3, x.shape[1]).fit(x, y, epochs=5)
        probs = model.predict_proba(x)
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert (probs >= 0).all()

    def test_rejects_single_class(self):
        with pytest.raises(ModelError):
            LogisticRegression(1, 8)

    def test_rejects_label_out_of_range(self):
        x, _y = self._separable(n=10)
        with pytest.raises(ModelError):
            LogisticRegression(2, x.shape[1]).fit(x, np.full(10, 5))

    def test_rejects_row_mismatch(self):
        x, y = self._separable(n=10)
        with pytest.raises(ModelError):
            LogisticRegression(3, x.shape[1]).fit(x, y[:5])

    def test_require_fitted(self):
        model = LogisticRegression(2, 8)
        with pytest.raises(NotFittedError):
            model.require_fitted()

    def test_ce_gradient_decreases_loss(self):
        x, y = self._separable(n=60)
        model = LogisticRegression(3, x.shape[1], learning_rate=0.1)
        loss_before, grad_w, grad_b = model.ce_gradient(x, y)
        for _ in range(20):
            _loss, grad_w, grad_b = model.ce_gradient(x, y)
            model.step(grad_w, grad_b)
        loss_after, _gw, _gb = model.ce_gradient(x, y)
        assert loss_after < loss_before

    def test_grad_from_dlogits_shape(self):
        x, y = self._separable(n=10)
        model = LogisticRegression(3, x.shape[1])
        dlogits = np.ones((10, 3))
        grad_w, grad_b = model.grad_from_dlogits(x, dlogits)
        assert grad_w.shape == model.weights.shape
        assert grad_b.shape == model.bias.shape

    def test_softmax_stability(self):
        logits = np.array([[1000.0, 1000.0], [-1000.0, 0.0]])
        probs = softmax(logits)
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert not np.isnan(probs).any()


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and (
        a.tobytes() == b.tobytes()
    )


class TestInPlaceAdam:
    def test_twenty_steps_equal_the_reference(self):
        rng = np.random.default_rng(4)
        from scipy import sparse

        x = sparse.csr_matrix(
            rng.normal(size=(40, 300)) * (rng.random((40, 300)) < 0.05)
        )
        y = rng.integers(0, 3, size=40)
        model = LogisticRegression(3, 300, learning_rate=0.1, l2=1e-3)
        reference = LogisticRegression(3, 300, learning_rate=0.1, l2=1e-3)
        for step in range(20):
            _loss, grad_w, grad_b = model.ce_gradient(x, y)
            # The l2 term, added in place, has the bits of the expression.
            probs = reference.predict_proba(x)
            delta = probs.copy()
            delta[np.arange(40), y] -= 1.0
            delta /= 40
            expected = np.asarray(x.T @ delta) + 1e-3 * reference.weights
            assert _same_bits(grad_w, expected), step
            model.step(grad_w, grad_b)
            adam_step_reference(reference, expected, delta.sum(axis=0))
            for name in ("weights", "bias", "_m_w", "_v_w", "_m_b", "_v_b"):
                assert _same_bits(
                    getattr(model, name), getattr(reference, name)
                ), (step, name)
        assert model._t == reference._t == 20


def _expanded(crf):
    """The compact model's emission table as a dense (n_features, L)."""
    return crf._emit[crf._row]


@needs_ported_scipy
class TestCompactCrf:
    def test_expanded_table_equals_the_dense_reference(self):
        xs, ys = toy_sequences(6)
        # Tokens with many features of different counts, so a changed
        # summation order shows in the bits.
        xs = [
            [
                HASHER.indices_of(
                    [f"w={w}"]
                    + [f"affix{k}={w[:k]}|{w[-k:]}" for k in range(1, len(w))]
                    + [f"prev={prev}" for prev in x_words[:i]]
                )
                for i, w in enumerate(x_words)
            ]
            for x_words in [
                ["fever", "and", "cough"],
                ["no", "fever", "today"],
                ["cough", "resolved", "fully"],
            ]
            * 6
        ]
        xs = xs + [[], feats(["fever"]) + [np.empty(0, dtype=np.int64)]]
        ys = ys + [[], ["B-S", "O"]]
        params = dict(n_features=1 << 12, epochs=3, seed=5)
        crf = LinearChainCRF(**params).fit(xs, ys)
        dense = crf_fit_dense(xs, ys, **params)
        seen = np.unique(np.concatenate([i for x in xs for i in x]))
        assert crf._emit.shape == (len(seen) + 1, len(crf.labels))
        assert crf.labels == dense.labels
        for mine, theirs in (
            (_expanded(crf), dense._emit),
            (crf._trans, dense._trans),
            (crf._start, dense._start),
            (crf._end, dense._end),
        ):
            assert _same_bits(mine, theirs)
        for x in xs:
            assert crf.predict(x) == dense.predict(x)

    def test_an_unseen_feature_adds_exactly_zero(self):
        xs, ys = toy_sequences(3)
        crf = LinearChainCRF(n_features=1 << 12, epochs=2).fit(xs, ys)
        seen = set(np.concatenate([i for x in xs for i in x]).tolist())
        unseen = next(i for i in range(1 << 12) if i not in seen)
        assert crf._row[unseen] == len(crf._emit) - 1
        assert _same_bits(crf._emit[-1], np.zeros(len(crf.labels)))
        sentence = feats(["fever", "and", "cough"])
        padded = [np.append(indices, unseen) for indices in sentence]
        padded.append(np.array([unseen]))
        plain = crf._emissions(crf._grid(sentence)[0])
        with_unseen = crf._emissions(crf._grid(padded)[0])
        assert _same_bits(with_unseen[:-1], plain)
        assert _same_bits(with_unseen[-1], np.zeros(len(crf.labels)))


@needs_ported_scipy
def test_extractor_training_equals_the_reference_trainer():
    from repro.annotation.brat import serialize_ann
    from repro.corpus.generator import CaseReportGenerator
    from repro.pipeline import ClinicalExtractor

    generator = CaseReportGenerator(seed=900)
    train = [generator.generate(f"train-{i}") for i in range(10)]
    held_out = [generator.generate(f"held-{i}") for i in range(20)]
    compact = ClinicalExtractor.train(train)
    with reference_training():
        reference = ClinicalExtractor.train(train)
    assert type(reference.ner._model).__name__ == "DenseLinearChainCRF"
    assert LogisticRegression.step is not adam_step_reference

    crf, dense = compact.ner._model, reference.ner._model
    assert _same_bits(_expanded(crf), dense._emit)
    for name in ("_trans", "_start", "_end"):
        assert _same_bits(getattr(crf, name), getattr(dense, name))
    model, ref_model = compact.temporal.model, reference.temporal.model
    for name in ("weights", "bias", "_m_w", "_v_w"):
        assert _same_bits(getattr(model, name), getattr(ref_model, name))
    for report in held_out:
        assert compact.ner.predict_spans(report.text) == (
            reference.ner.predict_spans(report.text)
        )
        assert serialize_ann(
            compact.extract(report.report_id, report.text)
        ) == serialize_ann(reference.extract(report.report_id, report.text))
