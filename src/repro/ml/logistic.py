"""Multinomial logistic regression on sparse features, trained with Adam.

Used by the temporal relation classifier.  Besides the usual
``fit``/``predict_proba`` surface, the class exposes its forward pass
and an externally drivable Adam step so the PSL-regularized trainer in
:mod:`repro.temporal.psl` can inject its soft-logic gradient into the
same parameters.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.exceptions import ModelError, NotFittedError


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, numerically stabilized."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


class LogisticRegression:
    """Multinomial logistic regression (softmax) classifier.

    Args:
        n_classes: number of output classes (label ids 0..n-1).
        n_features: input dimensionality (hashed feature space).
        learning_rate / beta1 / beta2: Adam hyperparameters.
        l2: L2 regularization strength.
    """

    def __init__(
        self,
        n_classes: int,
        n_features: int,
        learning_rate: float = 0.05,
        l2: float = 1e-5,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
        seed: int = 7,
    ):
        if n_classes < 2:
            raise ModelError("need at least two classes")
        self.n_classes = n_classes
        self.n_features = n_features
        self.learning_rate = learning_rate
        self.l2 = l2
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        rng = np.random.default_rng(seed)
        self.weights = rng.normal(0.0, 1e-3, size=(n_features, n_classes))
        self.bias = np.zeros(n_classes)
        self._m_w = np.zeros_like(self.weights)
        self._v_w = np.zeros_like(self.weights)
        self._m_b = np.zeros_like(self.bias)
        self._v_b = np.zeros_like(self.bias)
        self._t = 0
        self._fitted = False
        # Weight-shaped scratch that the Adam step and the l2 term reuse.
        self._work = np.empty_like(self.weights)
        self._denom = np.empty_like(self.weights)

    # -- forward ------------------------------------------------------------

    def logits(self, x: sparse.csr_matrix) -> np.ndarray:
        """Raw class scores, shape (n_rows, n_classes)."""
        return np.asarray(x @ self.weights) + self.bias

    def predict_proba(self, x: sparse.csr_matrix) -> np.ndarray:
        """Class probabilities, shape (n_rows, n_classes)."""
        return softmax(self.logits(x))

    def predict(self, x: sparse.csr_matrix) -> np.ndarray:
        """Argmax class ids."""
        return np.argmax(self.logits(x), axis=1)

    # -- training -----------------------------------------------------------

    def fit(
        self,
        x: sparse.csr_matrix,
        y: np.ndarray,
        epochs: int = 30,
        batch_size: int = 64,
        seed: int = 11,
    ) -> "LogisticRegression":
        """Standard cross-entropy training with minibatch Adam."""
        y = np.asarray(y, dtype=np.int64)
        if x.shape[0] != len(y):
            raise ModelError("X/y row mismatch")
        if y.size and (y.min() < 0 or y.max() >= self.n_classes):
            raise ModelError("label id out of range")
        rng = np.random.default_rng(seed)
        indices = np.arange(x.shape[0])
        for _ in range(epochs):
            rng.shuffle(indices)
            for lo in range(0, len(indices), batch_size):
                batch = indices[lo : lo + batch_size]
                _, grad_w, grad_b = self.ce_gradient(x[batch], y[batch])
                self.step(grad_w, grad_b)
        self._fitted = True
        return self

    def ce_gradient(
        self, x: sparse.csr_matrix, y: np.ndarray
    ) -> tuple[float, np.ndarray, np.ndarray]:
        """Mean cross-entropy loss and its gradient on a batch.

        Returns:
            (loss, grad_weights, grad_bias) — gradients include L2.
        """
        n = x.shape[0]
        probs = self.predict_proba(x)
        log_likelihood = -np.log(
            np.clip(probs[np.arange(n), y], 1e-12, None)
        ).mean()
        delta = probs.copy()
        delta[np.arange(n), y] -= 1.0
        delta /= n
        grad_w = np.asarray(x.T @ delta)
        grad_w += np.multiply(self.weights, self.l2, out=self._work)
        grad_b = delta.sum(axis=0)
        return float(log_likelihood), grad_w, grad_b

    def grad_from_dlogits(
        self, x: sparse.csr_matrix, dlogits: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Backpropagate an arbitrary d(loss)/d(logits) to the parameters.

        This is the hook the PSL regularizer uses: it computes its own
        dlogits from the soft-logic rule distances, then folds the
        parameter gradient in here.
        """
        grad_w = np.asarray(x.T @ dlogits)
        grad_b = dlogits.sum(axis=0)
        return grad_w, grad_b

    def step(self, grad_w: np.ndarray, grad_b: np.ndarray) -> None:
        """One Adam update using internal moment state.

        The weight half runs in place over two scratch buffers, one
        operation at a time in the order of the textbook expression
        ``w -= lr * m_hat / (sqrt(v_hat) + eps)``, so its bits equal
        that expression's (``repro.testing.oracles.adam_step_reference``).
        """
        self._t += 1
        work, denom = self._work, self._denom
        np.multiply(grad_w, 1 - self.beta1, out=work)
        self._m_w *= self.beta1
        self._m_w += work
        np.square(grad_w, out=work)
        work *= 1 - self.beta2
        self._v_w *= self.beta2
        self._v_w += work
        np.divide(self._m_w, 1 - self.beta1**self._t, out=work)
        work *= self.learning_rate
        np.divide(self._v_w, 1 - self.beta2**self._t, out=denom)
        np.sqrt(denom, out=denom)
        denom += self.epsilon
        work /= denom
        self.weights -= work

        self._m_b = self.beta1 * self._m_b + (1 - self.beta1) * grad_b
        self._v_b = self.beta2 * self._v_b + (1 - self.beta2) * grad_b**2
        m_b_hat = self._m_b / (1 - self.beta1**self._t)
        v_b_hat = self._v_b / (1 - self.beta2**self._t)
        self.bias -= (
            self.learning_rate * m_b_hat / (np.sqrt(v_b_hat) + self.epsilon)
        )
        self._fitted = True

    def require_fitted(self) -> None:
        """Raise :class:`NotFittedError` when no update has happened."""
        if not self._fitted:
            raise NotFittedError("LogisticRegression used before fit()")
