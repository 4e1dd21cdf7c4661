"""BM25 (Okapi) ranking over an :class:`InvertedIndex`.

A query is scored in one numpy pass: one Python loop over its terms
gathers every term's postings into two local int arrays and its idf,
then the contributions of all postings are computed at once and summed
per document with ``np.bincount``.  The vector expression applies the
scalar formula's operations in the scalar order, and ``bincount`` adds
in input order, which is term order, so every score is bit-identical
to accumulating the postings one by one in a dict
(``repro.testing.oracles.bm25_scores_scalar`` is that loop).
"""

from __future__ import annotations

import math
from array import array
from typing import Sequence

import numpy as np

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

    def score_terms(
        self, terms: Sequence[str]
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(ordinals, scores)`` of every document a term touches,
        ordinals ascending, BM25 accumulated over the bag of terms."""
        index = self.index
        ordinals = array("i")
        tfs = array("i")
        idfs: list[float] = []
        counts: list[int] = []
        for term in terms:
            df = index.extend_postings(term, ordinals, tfs)
            if df:
                # Scalar math.log: numpy's vector log may differ from
                # libm in the last ulp.
                idfs.append(self.idf(term))
                counts.append(df)
        if not ordinals:
            return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.float64)
        k1, b = self.k1, self.b
        avg_len = index.average_length or 1.0
        ords = np.frombuffer(ordinals, dtype=np.intc)
        tf = np.frombuffer(tfs, dtype=np.intc).astype(np.float64)
        idf = np.repeat(np.array(idfs), counts)
        lengths = np.frombuffer(index.doc_length_table(), dtype=np.int64)
        doc_len = lengths[ords].astype(np.float64)
        denom = tf + k1 * (1.0 - b + b * doc_len / avg_len)
        contribution = idf * tf * (k1 + 1.0) / denom
        scores = np.bincount(ords, weights=contribution)
        touched = np.flatnonzero(np.bincount(ords))
        return touched, scores[touched]
