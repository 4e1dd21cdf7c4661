"""Inverted index over one field.

Stores, per term, its postings as two parallel ``array('i')``: the
document ordinals in ascending order and the term frequency at each.
Document lengths are kept twice: a dict for the statistics and an
``array('q')`` indexed by ordinal (0 when absent) that the vectorised
BM25 pass gathers from.  Document ordinals are dense ints the engine
allocates.

No buffer on an array held here leaves the index: readers get copies
(:meth:`InvertedIndex.extend_postings`, :meth:`doc_length_table`),
because an ``array`` with an exported buffer refuses to grow and an
engine may be queried from one thread while another indexes.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import Counter
from types import MappingProxyType
from typing import Mapping, Sequence

from repro.search.analysis import AnalyzedToken


class InvertedIndex:
    """Term -> postings with document lengths (for BM25 normalization)."""

    def __init__(self):
        # term -> (ordinals, tfs), ordinals strictly ascending.
        self._postings: dict[str, tuple[array, array]] = {}
        self._doc_lengths: dict[int, int] = {}
        self._length_table = array("q")
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
        postings = self._postings
        for term, tf in per_term.items():
            # Postings stay in doc-ord order.  A new ordinal is almost
            # always the largest and goes at the tail; after a
            # delete-then-reinsert (restore path) it is not, and is
            # inserted at its sorted slot, so the lists equal a cold
            # rebuild's.
            entry = postings.get(term)
            if entry is None:
                postings[term] = (array("i", (doc_ord,)), array("i", (tf,)))
                continue
            ordinals, tfs = entry
            if ordinals[-1] < doc_ord:
                ordinals.append(doc_ord)
                tfs.append(tf)
            else:
                at = bisect_left(ordinals, doc_ord)
                ordinals.insert(at, doc_ord)
                tfs.insert(at, tf)
        self._doc_terms[doc_ord] = tuple(per_term)
        length = len(tokens)
        self._doc_lengths[doc_ord] = length
        table = self._length_table
        missing = doc_ord + 1 - len(table)
        if missing > 0:
            table.frombytes(bytes(missing * table.itemsize))
        table[doc_ord] = length
        self._total_length += length

    def remove_document(self, doc_ord: int) -> None:
        """Delete a document from the index (no-op when absent)."""
        length = self._doc_lengths.pop(doc_ord, None)
        if length is None:
            return
        self._total_length -= length
        self._length_table[doc_ord] = 0
        for term in self._doc_terms.pop(doc_ord, ()):
            ordinals, tfs = self._postings[term]
            if len(ordinals) == 1:
                del self._postings[term]
                continue
            at = bisect_left(ordinals, doc_ord)
            del ordinals[at]
            del tfs[at]

    # -- access -------------------------------------------------------------

    def postings(self, term: str) -> list[tuple[int, int]]:
        """``(doc_ord, tf)`` postings for ``term`` (empty when unseen)."""
        entry = self._postings.get(term)
        if entry is None:
            return []
        return list(zip(*entry))

    def extend_postings(
        self, term: str, ordinals: array, tfs: array
    ) -> int:
        """Append ``term``'s postings to the caller's ``array('i')``
        pair; returns how many (its document frequency)."""
        entry = self._postings.get(term)
        if entry is None:
            return 0
        ordinals.extend(entry[0])
        tfs.extend(entry[1])
        return len(entry[0])

    def document_frequency(self, term: str) -> int:
        """Number of documents containing ``term``."""
        entry = self._postings.get(term)
        return 0 if entry is None else len(entry[0])

    def doc_length(self, doc_ord: int) -> int:
        """Token count of a document (0 when absent)."""
        return self._doc_lengths.get(doc_ord, 0)

    @property
    def doc_lengths(self) -> Mapping[int, int]:
        """Read-only ``doc_ord -> length`` view of the indexed documents."""
        return MappingProxyType(self._doc_lengths)

    def doc_length_table(self) -> bytes:
        """Every document length as int64 bytes indexed by ordinal (0
        for an ordinal not indexed): a copy, safe to wrap in numpy."""
        return self._length_table.tobytes()

    def doc_terms(self, doc_ord: int) -> tuple[str, ...]:
        """A document's distinct terms in first-occurrence order."""
        return self._doc_terms.get(doc_ord, ())

    @property
    def n_documents(self) -> int:
        return len(self._doc_lengths)

    @property
    def total_length(self) -> int:
        return self._total_length

    @property
    def average_length(self) -> float:
        if not self._doc_lengths:
            return 0.0
        return self._total_length / len(self._doc_lengths)

    def terms(self) -> list[str]:
        """All indexed terms (unordered cost, sorted for determinism)."""
        return sorted(self._postings)
