"""Probabilistic-soft-logic regularization for temporal RE training.

Implements the training objective of the paper's temporal module
(ref [7]): alongside cross-entropy, each document contributes a loss
term measuring how far the predicted relation *probabilities* are from
satisfying the transitivity and symmetry rules, under the Łukasiewicz
t-norm.  For a grounded rule

    r1(a, b) ∧ r2(b, c) → r3(a, c)

the distance to satisfaction is ``max(0, p1 + p2 - 1 - p3)`` where the
``p``s are the model's probabilities for the participating labels; the
regularizer is the mean squared distance over all groundings.  The
gradient flows into the classifier's logits through the softmax.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.corpus.datasets import TemporalDocument
from repro.ml.logistic import softmax
from repro.temporal.classifier import TemporalClassifier
from repro.temporal.relations import RelationAlgebra


@dataclass(frozen=True)
class PslConfig:
    """PSL training hyperparameters."""

    weight: float = 1.0
    epochs: int = 25
    seed: int = 17


def find_triples(
    doc: TemporalDocument,
) -> list[tuple[int, int, int]]:
    """Indices (into ``doc.pairs``) of transitivity triples.

    A triple (ab, bc, ac) grounds a rule when all three pairs are in the
    document's labeled pair set with matching shared events.
    """
    index: dict[tuple[str, str], int] = {}
    for i, pair in enumerate(doc.pairs):
        index[(pair.src_id, pair.tgt_id)] = i
    # Pairs grouped by their source event, each group in pair order, so
    # (a, b) meets only the (b, c) pairs instead of every pair.
    by_source: dict[str, list[tuple[str, int]]] = {}
    for (b, c), i_bc in index.items():
        by_source.setdefault(b, []).append((c, i_bc))
    triples = []
    for (a, b), i_ab in index.items():
        for c, i_bc in by_source.get(b, ()):
            if c == a:
                continue
            i_ac = index.get((a, c))
            if i_ac is not None:
                triples.append((i_ab, i_bc, i_ac))
    return triples


def psl_loss_and_grad(
    probs: np.ndarray,
    triples: Sequence[tuple[int, int, int]],
    algebra: RelationAlgebra,
    label_index: dict[str, int],
) -> tuple[float, np.ndarray]:
    """Łukasiewicz distance-to-satisfaction loss and its prob-gradient.

    Args:
        probs: (n_pairs, n_labels) probabilities for one document.
        triples: transitivity groundings from :func:`find_triples`.
        algebra: supplies the composition table.
        label_index: label -> column.

    Returns:
        (loss, dloss_dprobs) with the same shape as ``probs``.
    """
    grad = np.zeros_like(probs)
    loss = 0.0
    count = 0
    for i_ab, i_bc, i_ac in triples:
        for r1 in algebra.labels:
            for r2 in algebra.labels:
                r3 = algebra.compose(r1, r2)
                if r3 is None:
                    continue
                if (
                    r1 not in label_index
                    or r2 not in label_index
                    or r3 not in label_index
                ):
                    # The dataset's observed label set may be a subset
                    # of the algebra's inventory.
                    continue
                c1, c2, c3 = (
                    label_index[r1],
                    label_index[r2],
                    label_index[r3],
                )
                distance = (
                    probs[i_ab, c1] + probs[i_bc, c2] - 1.0 - probs[i_ac, c3]
                )
                count += 1
                if distance <= 0.0:
                    continue
                loss += distance * distance
                grad[i_ab, c1] += 2.0 * distance
                grad[i_bc, c2] += 2.0 * distance
                grad[i_ac, c3] -= 2.0 * distance
    if count:
        loss /= count
        grad /= count
    return loss, grad


def _dlogits_from_dprobs(
    probs: np.ndarray, dprobs: np.ndarray
) -> np.ndarray:
    """Backprop through row-wise softmax:
    dL/dz = p ⊙ (dL/dp - (dL/dp · p))."""
    inner = np.sum(dprobs * probs, axis=1, keepdims=True)
    return probs * (dprobs - inner)


def fit_with_psl(
    classifier: TemporalClassifier,
    docs: Sequence[TemporalDocument],
    algebra: RelationAlgebra,
    config: PslConfig | None = None,
) -> TemporalClassifier:
    """Train a :class:`TemporalClassifier` with CE + PSL regularization.

    The optimizer walks documents (not shuffled pairs) because the PSL
    groundings are per-document structures.
    """
    config = config or PslConfig()
    classifier.init_labels(docs)
    model = classifier.model
    label_index = {
        label: i for i, label in enumerate(classifier.labels)
    }

    prepared = []
    for doc in docs:
        x, pairs = classifier.featurize_doc(doc)
        y = classifier.encode_labels(pairs)
        triples = find_triples(doc)
        prepared.append((x, y, triples))

    rng = np.random.default_rng(config.seed)
    order = np.arange(len(prepared))
    for _epoch in range(config.epochs):
        rng.shuffle(order)
        for idx in order:
            x, y, triples = prepared[idx]
            if x.shape[0] == 0:
                continue
            _ce_loss, grad_w, grad_b = model.ce_gradient(x, y)
            if triples:
                probs = softmax(model.logits(x))
                _psl_loss, dprobs = psl_loss_and_grad(
                    probs, triples, algebra, label_index
                )
                dlogits = _dlogits_from_dprobs(probs, dprobs)
                extra_w, extra_b = model.grad_from_dlogits(
                    x, config.weight * dlogits
                )
                grad_w += extra_w
                grad_b += extra_b
            model.step(grad_w, grad_b)
    return classifier
