"""BM25 (Okapi) ranking over an :class:`InvertedIndex`."""

from __future__ import annotations

import math
from typing import Sequence

from repro.search.inverted_index import InvertedIndex


class BM25Scorer:
    """Okapi BM25 with the Lucene idf variant.

    Args:
        k1: term-frequency saturation (Lucene default 1.2).
        b: length normalization (Lucene default 0.75).
    """

    def __init__(self, index: InvertedIndex, k1: float = 1.2, b: float = 0.75):
        self.index = index
        self.k1 = k1
        self.b = b

    def idf(self, term: str) -> float:
        """Lucene-style idf: log(1 + (N - df + 0.5) / (df + 0.5))."""
        n = self.index.n_documents
        df = self.index.document_frequency(term)
        return math.log(1.0 + (n - df + 0.5) / (df + 0.5))

    def score_terms(self, terms: Sequence[str]) -> dict[int, float]:
        """Accumulated BM25 scores per doc ordinal for a bag of terms."""
        scores: dict[int, float] = {}
        avg_len = self.index.average_length or 1.0
        for term in terms:
            idf = self.idf(term)
            for doc_ord, tf in self.index.postings(term):
                doc_len = self.index.doc_length(doc_ord)
                denom = tf + self.k1 * (
                    1.0 - self.b + self.b * doc_len / avg_len
                )
                contribution = idf * tf * (self.k1 + 1.0) / denom
                scores[doc_ord] = scores.get(doc_ord, 0.0) + contribution
        return scores
