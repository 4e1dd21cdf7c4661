"""Exact inference for linear-chain models: Viterbi and forward-backward.

Scores are arranged as:

* ``emissions``: array (T, L) of per-token label scores.
* ``transitions``: array (L, L); ``transitions[i, j]`` scores label j
  following label i.
* ``start`` / ``end``: arrays (L,) scoring the first / last label.

All computations are in log space.  A zero-length chain (T = 0) has
log Z = 0.0 (the empty path) and (0, L) messages.
"""

from __future__ import annotations

import numpy as np


def _logsumexp(a: np.ndarray, axis: int | None = None) -> np.ndarray:
    """``log(sum(exp(a)))`` along ``axis`` for a real, non-empty array.

    The arithmetic of scipy 1.17's ``logsumexp``, without its array-API
    dispatch: the maximum, the count ``m`` of elements equal to it, the
    sum ``s`` of ``exp(a - max)`` over the others, then
    ``log1p(s / m) + log(m) + max``.  A non-finite result falls back to
    ``log(sum(exp(a)))``, as scipy's does.  On float64 input the bits,
    the shape and the 0-d type equal that scipy release's, whichever
    scipy is installed (older releases use a different formula).
    """
    a = np.atleast_1d(a)
    axes = tuple(range(a.ndim)) if axis is None else axis
    # ufunc reductions are what np.max / np.sum call, minus the wrapper.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.maximum.reduce(a, axis=axes, keepdims=True)
        at_max = a == a_max
        m = np.add.reduce(at_max, axis=axes, keepdims=True, dtype=a.dtype)
        s = np.add.reduce(
            np.exp(np.where(at_max, -np.inf, a) - a_max),
            axis=axes,
            keepdims=True,
        )
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
        finite = np.isfinite(out)
        if not finite.all():
            direct = np.add.reduce(np.exp(a), axis=axes, keepdims=True)
            out = np.where(finite, out, np.log(direct))
    out = np.squeeze(out, axis=axes)
    return out[()] if out.ndim == 0 else out


def viterbi(
    emissions: np.ndarray,
    transitions: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
) -> tuple[np.ndarray, float]:
    """Best label sequence and its score.

    Returns:
        (labels, score): ``labels`` is an int array of length T.
    """
    n_steps, n_labels = emissions.shape
    if n_steps == 0:
        return np.empty(0, dtype=np.int64), 0.0
    delta = start + emissions[0]
    backpointers = np.zeros((n_steps, n_labels), dtype=np.int64)
    for t in range(1, n_steps):
        candidate = delta[:, None] + transitions  # (L_prev, L_next)
        backpointers[t] = np.argmax(candidate, axis=0)
        delta = candidate[backpointers[t], np.arange(n_labels)] + emissions[t]
    delta = delta + end
    best_last = int(np.argmax(delta))
    best_score = float(delta[best_last])
    labels = np.empty(n_steps, dtype=np.int64)
    labels[-1] = best_last
    for t in range(n_steps - 1, 0, -1):
        labels[t - 1] = backpointers[t, labels[t]]
    return labels, best_score


def forward_log(
    emissions: np.ndarray,
    transitions: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
) -> tuple[np.ndarray, float]:
    """Forward messages (log alpha) and the log partition function."""
    n_steps, n_labels = emissions.shape
    alpha = np.empty((n_steps, n_labels))
    if n_steps == 0:
        return alpha, 0.0
    alpha[0] = start + emissions[0]
    for t in range(1, n_steps):
        alpha[t] = (
            _logsumexp(alpha[t - 1][:, None] + transitions, axis=0)
            + emissions[t]
        )
    log_z = float(_logsumexp(alpha[-1] + end))
    return alpha, log_z


def backward_log(
    emissions: np.ndarray,
    transitions: np.ndarray,
    end: np.ndarray,
) -> np.ndarray:
    """Backward messages (log beta)."""
    n_steps, n_labels = emissions.shape
    beta = np.empty((n_steps, n_labels))
    if n_steps == 0:
        return beta
    beta[-1] = end
    for t in range(n_steps - 2, -1, -1):
        beta[t] = _logsumexp(
            transitions + (emissions[t + 1] + beta[t + 1])[None, :], axis=1
        )
    return beta


def marginals(
    emissions: np.ndarray,
    transitions: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Unary and pairwise marginals under the CRF distribution.

    Returns:
        (unary, pairwise, log_z) where ``unary`` has shape (T, L) and
        ``pairwise`` has shape (T-1, L, L) — pairwise[t, i, j] is
        P(y_t = i, y_{t+1} = j).
    """
    n_steps, n_labels = emissions.shape
    alpha, log_z = forward_log(emissions, transitions, start, end)
    beta = backward_log(emissions, transitions, end)
    unary = np.exp(alpha + beta - log_z)
    pairwise = np.empty((max(n_steps - 1, 0), n_labels, n_labels))
    for t in range(n_steps - 1):
        joint = (
            alpha[t][:, None]
            + transitions
            + (emissions[t + 1] + beta[t + 1])[None, :]
            - log_z
        )
        pairwise[t] = np.exp(joint)
    return unary, pairwise, log_z


def sequence_score(
    labels: np.ndarray,
    emissions: np.ndarray,
    transitions: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
) -> float:
    """Unnormalized log score of one labeling."""
    if len(labels) == 0:
        return 0.0
    score = float(start[labels[0]] + emissions[0, labels[0]])
    for t in range(1, len(labels)):
        score += float(
            transitions[labels[t - 1], labels[t]] + emissions[t, labels[t]]
        )
    score += float(end[labels[-1]])
    return score
