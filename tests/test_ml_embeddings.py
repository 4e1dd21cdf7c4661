"""Tests for the char-n-gram contextual embedder (C-FLAIR substitute)."""

import numpy as np
import pytest

from repro.exceptions import NotFittedError
from repro.ml.embeddings import CharNgramEmbedder, _kmeans
from repro.testing.oracles import kmeans_reference

SENTENCES = [
    ["the", "patient", "had", "fever", "and", "cough"],
    ["fever", "resolved", "after", "treatment"],
    ["cough", "worsened", "during", "treatment"],
    ["aspirin", "was", "given", "for", "fever"],
    ["the", "patient", "received", "aspirin", "daily"],
] * 4


@pytest.fixture(scope="module")
def embedder():
    return CharNgramEmbedder(dim=16, n_bits=8, seed=5).fit(SENTENCES)


class TestFit:
    def test_learns_grams(self, embedder):
        assert embedder.n_grams_learned > 0

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            CharNgramEmbedder().token_vector("fever")

    def test_empty_corpus_degrades_gracefully(self):
        embedder = CharNgramEmbedder(dim=8).fit([])
        assert np.allclose(embedder.token_vector("fever"), 0.0)


class TestVectors:
    def test_token_vector_shape_and_norm(self, embedder):
        vec = embedder.token_vector("fever")
        assert vec.shape == (16,)
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-6)

    def test_unseen_token_composed_from_grams(self, embedder):
        # "fevers" shares char n-grams with "fever".
        a = embedder.token_vector("fever")
        b = embedder.token_vector("fevers")
        cosine = float(a @ b)
        assert cosine > 0.5

    def test_totally_unknown_token_zero(self, embedder):
        assert np.allclose(embedder.token_vector("zzqqxx"), 0.0)

    def test_contextual_shape(self, embedder):
        matrix = embedder.contextual_vectors(["fever", "and", "cough"])
        assert matrix.shape == (3, 48)

    def test_context_states_shifted(self, embedder):
        matrix = embedder.contextual_vectors(["fever", "cough"])
        # Forward state of the first token is the zero initial state.
        assert np.allclose(matrix[0, 16:32], 0.0)
        # Backward state of the last token is the zero initial state.
        assert np.allclose(matrix[-1, 32:], 0.0)

    def test_contextualization_differs_by_context(self, embedder):
        a = embedder.contextual_vectors(["aspirin", "fever"])[1]
        b = embedder.contextual_vectors(["cough", "fever"])[1]
        assert not np.allclose(a, b)

    def test_sign_features_shape(self, embedder):
        feats = embedder.sign_features(["fever", "cough"])
        assert len(feats) == 2
        assert len(feats[0]) == 8
        assert all(f.startswith("cemb") for f in feats[0])


class TestClusters:
    def test_cluster_ids_after_fit_clusters(self, embedder):
        embedder.fit_clusters(ks=(4, 8))
        ids = embedder.cluster_ids("fever")
        assert len(ids) == 2
        assert all(0 <= cid < k for k, cid in ids)

    def test_similar_tokens_share_fine_cluster(self, embedder):
        embedder.fit_clusters(ks=(4,))
        assert embedder.cluster_ids("fever") == embedder.cluster_ids("fevers")

    def test_no_clusters_before_fit_clusters(self):
        fresh = CharNgramEmbedder(dim=8).fit(SENTENCES)
        assert fresh.cluster_ids("fever") == ()


class TestKmeans:
    def test_centroid_count(self):
        rng = np.random.default_rng(0)
        vectors = rng.normal(size=(50, 4))
        centers = _kmeans(vectors, 5, seed=1)
        assert centers.shape == (5, 4)

    def test_k_clipped_to_n(self):
        rng = np.random.default_rng(0)
        vectors = rng.normal(size=(3, 4))
        centers = _kmeans(vectors, 10, seed=1)
        assert centers.shape == (3, 4)

    def test_empty_input(self):
        centers = _kmeans(np.zeros((0, 4)), 3, seed=1)
        assert len(centers) == 0

    def test_separated_clusters_found(self):
        rng = np.random.default_rng(2)
        a = rng.normal(loc=0.0, scale=0.1, size=(20, 2))
        b = rng.normal(loc=10.0, scale=0.1, size=(20, 2))
        centers = _kmeans(np.vstack([a, b]), 2, seed=3)
        norms = sorted(np.linalg.norm(centers, axis=1))
        assert norms[0] < 1.0
        assert norms[1] > 10.0

    @pytest.mark.parametrize(
        "shape, k",
        [((400, 16), 64), ((50, 8), 16), ((10, 4), 16), ((1, 3), 4)],
    )
    def test_running_minimum_seeding_equals_the_reference(self, shape, k):
        vectors = np.random.default_rng(4).normal(size=shape)
        assert _kmeans(vectors, k, seed=1).tobytes() == (
            kmeans_reference(vectors, k, seed=1).tobytes()
        )

    @pytest.mark.parametrize(
        "vectors",
        [np.ones((30, 5)), np.repeat(np.eye(2, 4), 10, axis=0)],
        ids=["all-duplicates", "two-distinct-points"],
    )
    def test_seeding_with_no_distance_left_equals_the_reference(self, vectors):
        # Once every point sits on a chosen centroid, ``total <= 0``
        # draws each further one uniformly, from the same generator.
        assert _kmeans(vectors, 20, seed=2).tobytes() == (
            kmeans_reference(vectors, 20, seed=2).tobytes()
        )
