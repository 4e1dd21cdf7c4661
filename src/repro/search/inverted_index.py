"""Inverted index over one field.

Stores, per term, a postings list of ``(doc_ord, tf)`` pairs in
doc-ord order, plus document lengths for BM25 normalization; document
ordinals are dense ints the engine allocates.
"""

from __future__ import annotations

from bisect import insort
from collections import Counter
from typing import Sequence

from repro.search.analysis import AnalyzedToken


class InvertedIndex:
    """Term -> postings with document lengths (for BM25 normalization)."""

    def __init__(self):
        self._postings: dict[str, list[tuple[int, int]]] = {}
        self._doc_lengths: dict[int, int] = {}
        # Reverse map doc ordinal -> its terms, so deletion touches only
        # the document's own postings lists instead of the whole
        # vocabulary (O(doc terms) vs O(total terms) per delete).
        self._doc_terms: dict[int, tuple[str, ...]] = {}
        self._total_length = 0

    # -- mutation ----------------------------------------------------------

    def add_document(
        self, doc_ord: int, tokens: Sequence[AnalyzedToken]
    ) -> None:
        """Index an analyzed token stream for ``doc_ord``.

        Re-adding an existing ordinal replaces its previous content.
        """
        if doc_ord in self._doc_lengths:
            self.remove_document(doc_ord)
        per_term = Counter(token.term for token in tokens)
        for term, tf in per_term.items():
            # Postings stay in doc-ord order.  A new ordinal is almost
            # always the largest and goes at the tail; after a
            # delete-then-reinsert (restore path) it is not, and an
            # appended posting would make iteration (and thus score
            # accumulation / tie-break order) diverge from a cold
            # rebuild, so it is inserted in place.
            postings = self._postings.setdefault(term, [])
            if not postings or postings[-1][0] < doc_ord:
                postings.append((doc_ord, tf))
            else:
                insort(postings, (doc_ord, tf))
        self._doc_terms[doc_ord] = tuple(per_term)
        length = len(tokens)
        self._doc_lengths[doc_ord] = length
        self._total_length += length

    def remove_document(self, doc_ord: int) -> None:
        """Delete a document from the index (no-op when absent)."""
        length = self._doc_lengths.pop(doc_ord, None)
        if length is None:
            return
        self._total_length -= length
        for term in self._doc_terms.pop(doc_ord, ()):
            postings = self._postings.get(term)
            if postings is None:
                continue
            filtered = [p for p in postings if p[0] != doc_ord]
            if filtered:
                self._postings[term] = filtered
            else:
                del self._postings[term]

    # -- access -------------------------------------------------------------

    def postings(self, term: str) -> list[tuple[int, int]]:
        """``(doc_ord, tf)`` postings for ``term`` (empty when unseen)."""
        return self._postings.get(term, [])

    def document_frequency(self, term: str) -> int:
        """Number of documents containing ``term``."""
        return len(self._postings.get(term, ()))

    def doc_length(self, doc_ord: int) -> int:
        """Token count of a document (0 when absent)."""
        return self._doc_lengths.get(doc_ord, 0)

    @property
    def n_documents(self) -> int:
        return len(self._doc_lengths)

    @property
    def average_length(self) -> float:
        if not self._doc_lengths:
            return 0.0
        return self._total_length / len(self._doc_lengths)

    def terms(self) -> list[str]:
        """All indexed terms (unordered cost, sorted for determinism)."""
        return sorted(self._postings)
