"""Positional inverted index over one field.

Stores, per term, a postings list of ``(doc ordinal, positions)``;
document ordinals are dense ints managed here so the engine can hold
several field indexes that share external doc ids.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Sequence

from repro.search.analysis import AnalyzedToken


@dataclass(slots=True)
class Posting:
    """One document's occurrence record for a term."""

    doc_ord: int
    positions: list[int] = field(default_factory=list)

    @property
    def term_frequency(self) -> int:
        return len(self.positions)


class InvertedIndex:
    """Term -> postings with document lengths (for BM25 normalization)."""

    def __init__(self):
        self._postings: dict[str, list[Posting]] = {}
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
        per_term: dict[str, list[int]] = {}
        for token in tokens:
            positions = per_term.get(token.term)
            if positions is None:
                per_term[token.term] = [token.position]
            else:
                positions.append(token.position)
        for term, positions in per_term.items():
            # Postings stay in doc-ord order.  A new ordinal is almost
            # always the largest and goes at the tail; after a
            # delete-then-reinsert (restore path) it is not, and an
            # appended posting would make iteration (and thus score
            # accumulation / tie-break order) diverge from a cold
            # rebuild, so it is inserted in place.
            postings = self._postings.setdefault(term, [])
            posting = Posting(doc_ord, sorted(positions))
            if not postings or postings[-1].doc_ord < doc_ord:
                postings.append(posting)
            else:
                insort(postings, posting, key=attrgetter("doc_ord"))
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
            filtered = [p for p in postings if p.doc_ord != doc_ord]
            if filtered:
                self._postings[term] = filtered
            else:
                del self._postings[term]

    # -- access -------------------------------------------------------------

    def postings(self, term: str) -> list[Posting]:
        """Postings list for ``term`` (empty when unseen)."""
        return self._postings.get(term, [])

    def document_frequency(self, term: str) -> int:
        """Number of documents containing ``term``."""
        return len(self._postings.get(term, ()))

    def doc_length(self, doc_ord: int) -> int:
        """Token count of a document (0 when absent)."""
        return self._doc_lengths.get(doc_ord, 0)

    def has_document(self, doc_ord: int) -> bool:
        """Whether ``doc_ord`` was indexed into this field."""
        return doc_ord in self._doc_lengths

    @property
    def n_documents(self) -> int:
        return len(self._doc_lengths)

    @property
    def total_length(self) -> int:
        """Sum of all document token counts."""
        return self._total_length

    @property
    def average_length(self) -> float:
        if not self._doc_lengths:
            return 0.0
        return self._total_length / len(self._doc_lengths)

    @property
    def vocabulary_size(self) -> int:
        return len(self._postings)

    def terms(self) -> list[str]:
        """All indexed terms (unordered cost, sorted for determinism)."""
        return sorted(self._postings)

    def phrase_positions(
        self,
        doc_ord: int,
        terms: Sequence[str],
        offsets: Sequence[int] | None = None,
    ) -> list[int]:
        """Start positions where ``terms`` occur as a phrase in a doc.

        By default the terms must be consecutive.  ``offsets`` gives each
        term's position relative to the phrase start instead, which lets
        callers preserve analyzer position gaps (stopword slots), as
        ElasticSearch phrase queries do.

        Raises:
            ValueError: ``offsets`` length does not match ``terms``.
        """
        if not terms:
            return []
        if offsets is None:
            relative = range(len(terms))
        else:
            if len(offsets) != len(terms):
                raise ValueError("offsets/terms length mismatch")
            base = offsets[0]
            relative = [offset - base for offset in offsets]
        position_lists = []
        for term in terms:
            positions = None
            for posting in self._postings.get(term, ()):
                if posting.doc_ord == doc_ord:
                    positions = set(posting.positions)
                    break
            if positions is None:
                return []
            position_lists.append(positions)
        first = position_lists[0]
        hits = []
        for start in sorted(first):
            if all(
                (start + relative[i]) in position_lists[i]
                for i in range(1, len(terms))
            ):
                hits.append(start)
        return hits
