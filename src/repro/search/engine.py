"""The search engine: one field, one query, scored with BM25.

In CREATe-IR (paper Figure 6) the ElasticSearch analog does one job:
the second-stage keyword match over the report text, through the
paper's n-gram analyzer.  So the engine indexes one text per document
and answers one query shape, analysed text: an OR of the query's
analysed terms, BM25-scored, ranked by ``(-score, str(doc_id))``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.metrics import MetricsRegistry
from repro.search.analysis import CREATE_IR_ANALYZER_CONFIG, create_analyzer
from repro.search.bm25 import BM25Scorer
from repro.search.highlight import highlight as run_highlight
from repro.search.inverted_index import InvertedIndex


@dataclass(frozen=True, slots=True)
class ScoredHit:
    """One search result."""

    doc_id: Any
    score: float


class SearchEngine:
    """Full-text index over one text per document (the ElasticSearch
    analog).

    Args:
        analyzer_config: ES-style analyzer settings for the text and
            every query; the paper's n-gram analyzer by default.

    ``metrics``, when set to a :class:`MetricsRegistry`, receives the
    search counters and timings.

    Example:
        >>> engine = SearchEngine()
        >>> engine.index("d1", "fever and cough")
        >>> [hit.doc_id for hit in engine.search("fever")]
        ['d1']
    """

    def __init__(self, analyzer_config: dict = CREATE_IR_ANALYZER_CONFIG):
        self.metrics: "MetricsRegistry | None" = None
        self._analyzer = create_analyzer(analyzer_config)
        self._index = InvertedIndex()
        self._texts: dict[Any, str] = {}
        self._ordinals: dict[Any, int] = {}
        self._ids_by_ordinal: dict[int, Any] = {}
        self._next_ordinal = 0

    def index(self, doc_id: Any, text: str) -> None:
        """Index a document's text; re-indexing replaces it in place,
        under the ordinal it already holds."""
        ordinal = self._ordinals.get(doc_id)
        if ordinal is None:
            ordinal = self._next_ordinal
            self._next_ordinal += 1
            self._ordinals[doc_id] = ordinal
            self._ids_by_ordinal[ordinal] = doc_id
        self._texts[doc_id] = text
        self._index.add_document(ordinal, self._analyzer.analyze(text))

    def delete(self, doc_id: Any) -> bool:
        """Remove a document; returns False when it was absent."""
        ordinal = self._ordinals.pop(doc_id, None)
        if ordinal is None:
            return False
        del self._ids_by_ordinal[ordinal]
        del self._texts[doc_id]
        self._index.remove_document(ordinal)
        return True

    @property
    def n_documents(self) -> int:
        return len(self._texts)

    def search(self, text: str, size: int = 10) -> list[ScoredHit]:
        """The top ``size`` documents for ``text``'s analysed terms."""
        start = time.perf_counter()
        ordinals, scores = BM25Scorer(self._index).score_terms(
            self._analyzer.terms(text)
        )
        if 0 < size < len(scores):
            # Only documents scoring at least the size-th best can
            # rank; ties at the cut stay in for the id tie-break.
            cut = np.partition(scores, len(scores) - size)[-size]
            kept = scores >= cut
            ordinals, scores = ordinals[kept], scores[kept]
        ids = self._ids_by_ordinal
        ranked = sorted(
            zip(map(ids.__getitem__, ordinals.tolist()), scores.tolist()),
            key=lambda item: (-item[1], str(item[0])),
        )
        hits = [ScoredHit(doc_id, score) for doc_id, score in ranked[:size]]
        if self.metrics is not None:
            self.metrics.increment("engine.searches")
            self.metrics.increment("engine.hits", len(hits))
            self.metrics.record(
                "engine.search_seconds", time.perf_counter() - start
            )
        return hits

    def highlight(
        self, doc_id: Any, query_text: str, window: int = 60
    ) -> list[str]:
        """Query-term snippets from a stored document's text."""
        return run_highlight(
            self._analyzer,
            self._texts.get(doc_id, ""),
            query_text,
            window=window,
        )
