"""Tests for linear-chain exact inference (Viterbi, forward-backward)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml import infer
from repro.testing.oracles import scipy_has_the_ported_logsumexp


def brute_force_best(emissions, transitions, start, end):
    n_steps, n_labels = emissions.shape
    best_score = -np.inf
    best_path = None
    for path in itertools.product(range(n_labels), repeat=n_steps):
        score = infer.sequence_score(
            np.asarray(path), emissions, transitions, start, end
        )
        if score > best_score:
            best_score = score
            best_path = path
    return np.asarray(best_path), best_score


def brute_force_log_z(emissions, transitions, start, end):
    n_steps, n_labels = emissions.shape
    scores = []
    for path in itertools.product(range(n_labels), repeat=n_steps):
        scores.append(
            infer.sequence_score(
                np.asarray(path), emissions, transitions, start, end
            )
        )
    return float(np.logaddexp.reduce(scores))


def random_instance(rng, n_steps, n_labels):
    return (
        rng.normal(size=(n_steps, n_labels)),
        rng.normal(size=(n_labels, n_labels)),
        rng.normal(size=n_labels),
        rng.normal(size=n_labels),
    )


class TestViterbi:
    def test_empty_sequence(self):
        labels, score = infer.viterbi(
            np.empty((0, 3)), np.zeros((3, 3)), np.zeros(3), np.zeros(3)
        )
        assert len(labels) == 0
        assert score == 0.0

    def test_single_step_picks_argmax(self):
        emissions = np.array([[0.0, 5.0, 1.0]])
        labels, score = infer.viterbi(
            emissions, np.zeros((3, 3)), np.zeros(3), np.zeros(3)
        )
        assert labels.tolist() == [1]
        assert score == 5.0

    def test_transitions_can_override_emissions(self):
        # Emission prefers label 1 at step 2, but the transition from
        # label 0 to label 1 is catastrophic.
        emissions = np.array([[5.0, 0.0], [0.0, 1.0]])
        transitions = np.array([[0.0, -100.0], [0.0, 0.0]])
        labels, _ = infer.viterbi(
            emissions, transitions, np.zeros(2), np.zeros(2)
        )
        assert labels.tolist() == [0, 0]

    @pytest.mark.parametrize("n_steps,n_labels", [(1, 2), (3, 2), (4, 3)])
    def test_matches_brute_force(self, n_steps, n_labels):
        rng = np.random.default_rng(7 + n_steps)
        emissions, transitions, start, end = random_instance(
            rng, n_steps, n_labels
        )
        labels, score = infer.viterbi(emissions, transitions, start, end)
        bf_labels, bf_score = brute_force_best(
            emissions, transitions, start, end
        )
        assert score == pytest.approx(bf_score)
        assert labels.tolist() == bf_labels.tolist()


class TestForwardBackward:
    @pytest.mark.parametrize("n_steps,n_labels", [(1, 2), (3, 3), (5, 2)])
    def test_log_z_matches_brute_force(self, n_steps, n_labels):
        rng = np.random.default_rng(11 + n_steps)
        emissions, transitions, start, end = random_instance(
            rng, n_steps, n_labels
        )
        _alpha, log_z = infer.forward_log(emissions, transitions, start, end)
        assert log_z == pytest.approx(
            brute_force_log_z(emissions, transitions, start, end)
        )

    def test_unary_marginals_sum_to_one(self):
        rng = np.random.default_rng(3)
        emissions, transitions, start, end = random_instance(rng, 4, 3)
        unary, pairwise, _log_z = infer.marginals(
            emissions, transitions, start, end
        )
        assert np.allclose(unary.sum(axis=1), 1.0)
        assert np.allclose(pairwise.sum(axis=(1, 2)), 1.0)

    def test_pairwise_consistent_with_unary(self):
        rng = np.random.default_rng(5)
        emissions, transitions, start, end = random_instance(rng, 4, 3)
        unary, pairwise, _ = infer.marginals(
            emissions, transitions, start, end
        )
        # Marginalizing the pairwise over the second label recovers the
        # first unary, and vice versa.
        assert np.allclose(pairwise[0].sum(axis=1), unary[0], atol=1e-9)
        assert np.allclose(pairwise[0].sum(axis=0), unary[1], atol=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 5), st.integers(2, 3), st.integers(0, 10_000))
    def test_viterbi_score_never_exceeds_log_z(self, n_steps, n_labels, seed):
        rng = np.random.default_rng(seed)
        emissions, transitions, start, end = random_instance(
            rng, n_steps, n_labels
        )
        _labels, best = infer.viterbi(emissions, transitions, start, end)
        _alpha, log_z = infer.forward_log(emissions, transitions, start, end)
        assert best <= log_z + 1e-9


class TestZeroLengthChain:
    def test_empty_chain_has_log_z_zero_and_empty_messages(self):
        emissions = np.empty((0, 3))
        transitions, start, end = np.zeros((3, 3)), np.zeros(3), np.zeros(3)
        alpha, log_z = infer.forward_log(emissions, transitions, start, end)
        assert alpha.shape == (0, 3)
        assert log_z == 0.0
        assert infer.backward_log(emissions, transitions, end).shape == (0, 3)
        unary, pairwise, log_z = infer.marginals(
            emissions, transitions, start, end
        )
        assert unary.shape == (0, 3)
        assert pairwise.shape == (0, 3, 3)
        assert log_z == 0.0
        # Viterbi already scored the empty path 0.0; the two agree.
        assert infer.viterbi(emissions, transitions, start, end)[1] == log_z


needs_ported_scipy = pytest.mark.skipif(
    not scipy_has_the_ported_logsumexp(),
    reason="this scipy's logsumexp uses an older formula than the port",
)


def _bits(value):
    return type(value), np.shape(value), np.asarray(value).tobytes()


@needs_ported_scipy
class TestPrivateLogsumexp:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 6),
        st.integers(1, 6),
        st.integers(0, 2**32 - 1),
        st.sampled_from([1.0, 30.0, 700.0]),
        st.sampled_from([0.0, 695.0, -695.0]),
        st.booleans(),
    )
    def test_bitwise_equal_to_scipy(
        self, rows, cols, seed, scale, shift, ties
    ):
        from scipy.special import logsumexp

        rng = np.random.default_rng(seed)
        a = rng.uniform(-1.0, 1.0, size=(rows, cols)) * scale
        if ties:
            # Few distinct values: the maximum repeats (m > 1).
            a = np.round(a / max(scale / 3.0, 1.0))
        a = a + shift
        for axis in (0, 1, None):
            assert _bits(infer._logsumexp(a, axis=axis)) == _bits(
                logsumexp(a, axis=axis)
            ), (a, axis)
        for vector in (a[0], a[:, 0]):
            assert _bits(infer._logsumexp(vector)) == _bits(
                logsumexp(vector)
            )

    def test_forced_ties_and_scalars(self):
        from scipy.special import logsumexp

        for a in (
            np.array([[3.0, 3.0, 3.0], [1.0, 2.0, 2.0]]),
            np.full((4, 4), -700.0),
            np.array([700.0, 700.0, 699.0]),
            np.array(5.0),
        ):
            for axis in (None,) + tuple(range(a.ndim)):
                assert _bits(infer._logsumexp(a, axis=axis)) == _bits(
                    logsumexp(a, axis=axis)
                )
