"""Linear-chain conditional random field over hashed string features.

This is the decoder at the heart of the C-FLAIR-substitute NER tagger:
emission weights live in a hashed feature table, transitions are dense,
training maximizes conditional log-likelihood with forward-backward
gradients and Adagrad updates (sparse-friendly).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import ModelError, NotFittedError
from repro.ml import infer


class LinearChainCRF:
    """CRF sequence labeler.

    Inputs are pre-hashed: each sentence is a list of int arrays, one
    array of feature indices per token (see
    :meth:`repro.ml.features.FeatureHasher.indices_of`).

    Attributes:
        labels: the label inventory, fixed at fit time.
    """

    def __init__(
        self,
        n_features: int = 1 << 18,
        epochs: int = 8,
        learning_rate: float = 0.2,
        l2: float = 1e-6,
        seed: int = 13,
    ):
        self.n_features = n_features
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.l2 = l2
        self.seed = seed
        self.labels: list[str] = []
        self._label_index: dict[str, int] = {}
        self._emit: np.ndarray | None = None  # (n_features, L)
        self._trans: np.ndarray | None = None  # (L, L)
        self._start: np.ndarray | None = None
        self._end: np.ndarray | None = None

    # -- API ---------------------------------------------------------------

    def fit(
        self,
        sequences: Sequence[Sequence[np.ndarray]],
        label_sequences: Sequence[Sequence[str]],
    ) -> "LinearChainCRF":
        """Train on parallel (features, labels) sequences.

        Args:
            sequences: per-sentence lists of per-token feature-index arrays.
            label_sequences: per-sentence label strings, same lengths.
        """
        if len(sequences) != len(label_sequences):
            raise ModelError("sequences/labels count mismatch")
        self._init_parameters(label_sequences)
        encoded = [
            np.asarray([self._label_index[y] for y in ys], dtype=np.int64)
            for ys in label_sequences
        ]
        rng = np.random.default_rng(self.seed)
        order = np.arange(len(sequences))
        # Adagrad accumulators.
        acc_emit = np.full((self.n_features, len(self.labels)), 1e-8)
        acc_trans = np.full_like(self._trans, 1e-8)
        acc_start = np.full_like(self._start, 1e-8)
        acc_end = np.full_like(self._end, 1e-8)

        for _ in range(self.epochs):
            rng.shuffle(order)
            for i in order:
                feats, gold = sequences[i], encoded[i]
                if len(gold) == 0:
                    continue
                self._update_one(
                    feats, gold, acc_emit, acc_trans, acc_start, acc_end
                )
        return self

    def predict(self, feats: Sequence[np.ndarray]) -> list[str]:
        """Viterbi-decode one sentence's feature arrays into labels."""
        self._require_fitted()
        if len(feats) == 0:
            return []
        emissions = self._emissions(feats)
        path, _score = infer.viterbi(
            emissions, self._trans, self._start, self._end
        )
        return [self.labels[y] for y in path]

    def predict_batch(
        self, sequences: Sequence[Sequence[np.ndarray]]
    ) -> list[list[str]]:
        """Decode many sentences."""
        return [self.predict(feats) for feats in sequences]

    def sequence_log_likelihood(
        self, feats: Sequence[np.ndarray], labels: Sequence[str]
    ) -> float:
        """log P(labels | feats) under the trained model."""
        self._require_fitted()
        gold = np.asarray(
            [self._label_index[y] for y in labels], dtype=np.int64
        )
        emissions = self._emissions(feats)
        _alpha, log_z = infer.forward_log(
            emissions, self._trans, self._start, self._end
        )
        score = infer.sequence_score(
            gold, emissions, self._trans, self._start, self._end
        )
        return score - log_z

    # -- internals ----------------------------------------------------------

    def _init_parameters(
        self, label_sequences: Sequence[Sequence[str]]
    ) -> None:
        inventory = sorted({y for ys in label_sequences for y in ys})
        if not inventory:
            raise ModelError("no labels in training data")
        self.labels = inventory
        self._label_index = {y: i for i, y in enumerate(inventory)}
        n_labels = len(inventory)
        self._emit = np.zeros((self.n_features, n_labels))
        self._trans = np.zeros((n_labels, n_labels))
        self._start = np.zeros(n_labels)
        self._end = np.zeros(n_labels)

    def _emissions(self, feats: Sequence[np.ndarray]) -> np.ndarray:
        emissions = np.empty((len(feats), len(self.labels)))
        for t, indices in enumerate(feats):
            if len(indices):
                emissions[t] = self._emit[indices].sum(axis=0)
            else:
                emissions[t] = 0.0
        return emissions

    def _update_one(
        self,
        feats: Sequence[np.ndarray],
        gold: np.ndarray,
        acc_emit: np.ndarray,
        acc_trans: np.ndarray,
        acc_start: np.ndarray,
        acc_end: np.ndarray,
    ) -> None:
        """One Adagrad step on one sentence."""
        emissions = self._emissions(feats)
        unary, pairwise, _ = infer.marginals(
            emissions, self._trans, self._start, self._end
        )

        n_labels = len(self.labels)
        lr = self.learning_rate

        # Emission gradient per token: expected (unary) minus empirical.
        for t, indices in enumerate(feats):
            if len(indices) == 0:
                continue
            grad_row = unary[t].copy()
            grad_row[gold[t]] -= 1.0
            grad_row += self.l2 * self._emit[indices].mean(axis=0)
            acc_emit[indices] += grad_row**2
            self._emit[indices] -= (
                lr * grad_row / np.sqrt(acc_emit[indices])
            )

        # Transition gradient.
        grad_trans = pairwise.sum(axis=0) if len(gold) > 1 else np.zeros(
            (n_labels, n_labels)
        )
        for t in range(len(gold) - 1):
            grad_trans[gold[t], gold[t + 1]] -= 1.0
        grad_trans += self.l2 * self._trans
        acc_trans += grad_trans**2
        self._trans -= lr * grad_trans / np.sqrt(acc_trans)

        # Start / end gradients.
        grad_start = unary[0].copy()
        grad_start[gold[0]] -= 1.0
        acc_start += grad_start**2
        self._start -= lr * grad_start / np.sqrt(acc_start)

        grad_end = unary[-1].copy()
        grad_end[gold[-1]] -= 1.0
        acc_end += grad_end**2
        self._end -= lr * grad_end / np.sqrt(acc_end)

    def _require_fitted(self) -> None:
        if self._emit is None:
            raise NotFittedError("LinearChainCRF used before fit()")
