"""Char-n-gram contextual embeddings: the C-FLAIR substitute.

The paper pre-trains C-FLAIR, a FLAIR-style contextualized character
language model, for a week on a V100.  Offline and CPU-only we keep the
three properties that matter to the downstream tagger:

1. **subword robustness** — token vectors are composed from character
   n-gram vectors, so unseen inflections of clinical terms
   ("cardiomyopathies") land near their stems;
2. **distributional pretraining** — n-gram vectors come from a PPMI
   co-occurrence matrix over an unlabeled corpus, factorized with
   truncated SVD (the classic count-based analogue of an LM objective);
3. **contextualization** — per-token vectors are mixed with
   exponentially decayed forward and backward context states, a
   fixed-weight analogue of FLAIR's bidirectional recurrent states.

Dense vectors feed the sparse CRF through random-hyperplane sign bits
(LSH), emitted as ordinary string features.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import svds

from repro.exceptions import NotFittedError
from repro.text.ngrams import character_ngrams

_BOUNDARY = "\x01"  # marks word start/end inside n-grams


class CharNgramEmbedder:
    """Pretrainable char-n-gram embeddings with fixed-decay context mixing.

    Args:
        dim: embedding dimensionality after SVD.
        min_gram / max_gram: character n-gram sizes (word-boundary
            markers included).
        window: context window (in tokens) for co-occurrence counting.
        max_context_words: context vocabulary cap (most frequent kept).
        decay: exponential decay of the forward/backward context states.
        n_bits: number of LSH sign bits exposed as CRF features.
    """

    def __init__(
        self,
        dim: int = 48,
        min_gram: int = 3,
        max_gram: int = 5,
        window: int = 2,
        max_context_words: int = 4000,
        decay: float = 0.5,
        n_bits: int = 64,
        seed: int = 29,
    ):
        self.dim = dim
        self.min_gram = min_gram
        self.max_gram = max_gram
        self.window = window
        self.max_context_words = max_context_words
        self.decay = decay
        self.n_bits = n_bits
        self.seed = seed
        self._gram_index: dict[str, int] | None = None
        self._gram_vectors: np.ndarray | None = None
        self._hyperplanes: np.ndarray | None = None
        self._token_cache: dict[str, np.ndarray] = {}
        self._pretrain_tokens: list[str] = []
        self._centroids: dict[int, np.ndarray] = {}
        self._cluster_cache: dict[str, tuple[tuple[int, int], ...]] = {}

    # -- pretraining ---------------------------------------------------------

    def fit(self, sentences: Sequence[Sequence[str]]) -> "CharNgramEmbedder":
        """Pretrain on tokenized, unlabeled sentences.

        Builds the n-gram/context co-occurrence matrix, applies PPMI,
        and factorizes with truncated SVD.
        """
        context_counts: Counter[str] = Counter()
        for sentence in sentences:
            context_counts.update(token.lower() for token in sentence)
        context_vocab = {
            word: idx
            for idx, (word, _count) in enumerate(
                context_counts.most_common(self.max_context_words)
            )
        }

        gram_index: dict[str, int] = {}
        rows: list[int] = []
        cols: list[int] = []
        for sentence in sentences:
            lowered = [token.lower() for token in sentence]
            for pos, token in enumerate(lowered):
                contexts = [
                    context_vocab[neighbor]
                    for offset in range(-self.window, self.window + 1)
                    if offset != 0
                    and 0 <= pos + offset < len(lowered)
                    and (neighbor := lowered[pos + offset]) in context_vocab
                ]
                if not contexts:
                    continue
                for gram in self._grams_of(token):
                    gram_id = gram_index.setdefault(gram, len(gram_index))
                    for ctx_id in contexts:
                        rows.append(gram_id)
                        cols.append(ctx_id)

        n_grams = len(gram_index)
        n_contexts = max(len(context_vocab), 1)
        if n_grams == 0:
            # Degenerate corpus: fall back to an empty table; token
            # vectors become zeros and the tagger degrades gracefully.
            self._gram_index = {}
            self._gram_vectors = np.zeros((0, self.dim))
        else:
            counts = sparse.coo_matrix(
                (np.ones(len(rows)), (rows, cols)),
                shape=(n_grams, n_contexts),
            ).tocsr()
            ppmi = self._ppmi(counts)
            k = min(self.dim, min(ppmi.shape) - 1)
            if k < 1:
                vectors = np.zeros((n_grams, self.dim))
            else:
                u, s, _vt = svds(ppmi, k=k, random_state=self.seed)
                # svds returns ascending singular values; order is
                # irrelevant downstream, but scale by sqrt(s) as usual.
                vectors = u * np.sqrt(np.maximum(s, 0.0))
                if vectors.shape[1] < self.dim:
                    pad = np.zeros((n_grams, self.dim - vectors.shape[1]))
                    vectors = np.hstack([vectors, pad])
            self._gram_index = gram_index
            self._gram_vectors = vectors

        rng = np.random.default_rng(self.seed)
        self._hyperplanes = rng.standard_normal((3 * self.dim, self.n_bits))
        self._token_cache.clear()
        self._cluster_cache.clear()
        self._pretrain_tokens = sorted(
            {token.lower() for sentence in sentences for token in sentence}
        )
        return self

    def fit_clusters(self, ks: tuple[int, ...] = (16, 64, 256)) -> None:
        """Brown-cluster-style word classes: k-means over token vectors.

        Runs k-means at each granularity in ``ks`` over the pretraining
        vocabulary's static vectors.  Unseen tokens are assigned at
        lookup time through their char-n-gram composition, which is how
        the pretrained representation transfers to novel clinical terms.
        """
        self._require_fitted()
        vectors = np.stack(
            [self.token_vector(token) for token in self._pretrain_tokens]
        ) if self._pretrain_tokens else np.zeros((0, self.dim))
        self._centroids = {}
        for k in ks:
            self._centroids[k] = _kmeans(
                vectors, min(k, max(len(vectors), 1)), seed=self.seed + k
            )
        self._cluster_cache.clear()

    def cluster_ids(self, token: str) -> tuple[tuple[int, int], ...]:
        """``(k, cluster_id)`` pairs across fitted granularities."""
        if not self._centroids:
            return ()
        key = token.lower()
        cached = self._cluster_cache.get(key)
        if cached is not None:
            return cached
        vector = self.token_vector(key)
        out = []
        for k in sorted(self._centroids):
            centroids = self._centroids[k]
            if len(centroids) == 0:
                continue
            distances = np.linalg.norm(centroids - vector, axis=1)
            out.append((k, int(np.argmin(distances))))
        result = tuple(out)
        if len(self._cluster_cache) < 500_000:
            self._cluster_cache[key] = result
        return result

    @staticmethod
    def _ppmi(counts: sparse.csr_matrix) -> sparse.csr_matrix:
        """Positive pointwise mutual information transform."""
        total = counts.sum()
        if total == 0:
            return counts
        row_sums = np.asarray(counts.sum(axis=1)).ravel()
        col_sums = np.asarray(counts.sum(axis=0)).ravel()
        coo = counts.tocoo()
        pmi = np.log(
            (coo.data * total)
            / (row_sums[coo.row] * col_sums[coo.col])
        )
        positive = np.maximum(pmi, 0.0)
        return sparse.coo_matrix(
            (positive, (coo.row, coo.col)), shape=counts.shape
        ).tocsr()

    # -- inference -------------------------------------------------------------

    def token_vector(self, token: str) -> np.ndarray:
        """Static (context-free) vector: mean of the token's gram vectors."""
        self._require_fitted()
        key = token.lower()
        cached = self._token_cache.get(key)
        if cached is not None:
            return cached
        gram_ids = [
            self._gram_index[gram]
            for gram in self._grams_of(key)
            if gram in self._gram_index
        ]
        if gram_ids:
            vector = self._gram_vectors[gram_ids].mean(axis=0)
            norm = np.linalg.norm(vector)
            if norm > 0:
                vector = vector / norm
        else:
            vector = np.zeros(self.dim)
        if len(self._token_cache) < 500_000:
            self._token_cache[key] = vector
        return vector

    def contextual_vectors(self, tokens: Sequence[str]) -> np.ndarray:
        """Contextualized token matrix, shape (len(tokens), 3 * dim).

        Columns are [static | forward state | backward state], where the
        forward state at t is the decayed mix of vectors at positions
        < t and the backward state mirrors it — the fixed-weight stand-in
        for FLAIR's two recurrent character LMs.
        """
        self._require_fitted()
        n = len(tokens)
        static = np.zeros((n, self.dim))
        for t, token in enumerate(tokens):
            static[t] = self.token_vector(token)
        forward = np.zeros_like(static)
        backward = np.zeros_like(static)
        state = np.zeros(self.dim)
        for t in range(n):
            forward[t] = state
            state = self.decay * state + (1 - self.decay) * static[t]
        state = np.zeros(self.dim)
        for t in range(n - 1, -1, -1):
            backward[t] = state
            state = self.decay * state + (1 - self.decay) * static[t]
        return np.hstack([static, forward, backward])

    def sign_features(self, tokens: Sequence[str]) -> list[list[str]]:
        """LSH sign-bit feature strings per token (CRF-consumable).

        Each token gets ``n_bits`` features of the form ``"cemb7=+"``.
        """
        self._require_fitted()
        contextual = self.contextual_vectors(tokens)
        signs = contextual @ self._hyperplanes > 0
        return [
            [
                f"cemb{bit}={'+' if signs[t, bit] else '-'}"
                for bit in range(self.n_bits)
            ]
            for t in range(len(tokens))
        ]

    @property
    def n_grams_learned(self) -> int:
        """Size of the learned n-gram vocabulary."""
        self._require_fitted()
        return len(self._gram_index)

    # -- internals ----------------------------------------------------------

    def _grams_of(self, token: str) -> list[str]:
        wrapped = f"{_BOUNDARY}{token.lower()}{_BOUNDARY}"
        if len(wrapped) < self.min_gram:
            return []
        return [
            gram
            for gram, _s, _e in character_ngrams(
                wrapped, self.min_gram, min(self.max_gram, len(wrapped))
            )
        ]

    def _require_fitted(self) -> None:
        if self._gram_index is None:
            raise NotFittedError("CharNgramEmbedder used before fit()")


def _kmeans(
    vectors: np.ndarray, k: int, seed: int, n_iterations: int = 12
) -> np.ndarray:
    """Lloyd's k-means with k-means++ style seeding; returns centroids."""
    n = len(vectors)
    if n == 0:
        return np.zeros((0, vectors.shape[1] if vectors.ndim == 2 else 1))
    k = min(k, n)
    rng = np.random.default_rng(seed)

    # k-means++ seeding; ``distances`` is each point's squared distance
    # to its nearest chosen centroid, lowered as each one is chosen.
    centroids = [vectors[int(rng.integers(0, n))]]
    distances = np.sum((vectors - centroids[0]) ** 2, axis=1)
    for _ in range(1, k):
        total = distances.sum()
        if total <= 0:
            centroid = vectors[int(rng.integers(0, n))]
        else:
            centroid = vectors[int(rng.choice(n, p=distances / total))]
        centroids.append(centroid)
        distances = np.minimum(
            distances, np.sum((vectors - centroid) ** 2, axis=1)
        )
    centers = np.stack(centroids)

    for _ in range(n_iterations):
        # Assign.
        distances = (
            np.sum(vectors**2, axis=1, keepdims=True)
            - 2.0 * vectors @ centers.T
            + np.sum(centers**2, axis=1)[None, :]
        )
        assignment = np.argmin(distances, axis=1)
        # Update.
        new_centers = centers.copy()
        for j in range(k):
            members = vectors[assignment == j]
            if len(members):
                new_centers[j] = members.mean(axis=0)
        if np.allclose(new_centers, centers):
            break
        centers = new_centers
    return centers
