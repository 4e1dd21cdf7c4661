"""The search engine: multi-field BM25 index with an ES-style query DSL.

Supported queries (dispatch on the single top-level key):

* ``{"match": {field: text}}`` — analyzed OR-of-terms BM25 match.
* ``{"match_phrase": {field: text}}`` — consecutive-position match.
* ``{"term": {field: value}}`` — exact un-analyzed term.
* ``{"bool": {"must": [...], "should": [...], "must_not": [...]}}``
* ``{"match_all": {}}``
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.exceptions import SearchError

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.metrics import MetricsRegistry
from repro.search.analysis import (
    Analyzer,
    CREATE_IR_ANALYZER_CONFIG,
    CREATE_IR_FIELD_ANALYZERS,
    STANDARD_ANALYZER_CONFIG,
    create_analyzer,
)
from repro.search.bm25 import BM25Scorer
from repro.search.inverted_index import InvertedIndex


@dataclass(frozen=True, slots=True)
class ScoredHit:
    """One search result."""

    doc_id: Any
    score: float
    source: dict


class SearchEngine:
    """Multi-field full-text index (the ElasticSearch analog).

    Args:
        field_analyzers: field name -> analyzer config dict (ES-style).
            Fields not listed use the standard analyzer.
        default_field: field targeted by plain-string queries.

    Example:
        >>> engine = SearchEngine({"body": CREATE_IR_ANALYZER_CONFIG})
        >>> engine.index("d1", {"body": "fever and cough"})
        >>> [hit.doc_id for hit in engine.search("fever")]
        ['d1']
    """

    def __init__(
        self,
        field_analyzers: dict[str, dict] | None = None,
        default_field: str = "body",
        metrics: "MetricsRegistry | None" = None,
    ):
        self.default_field = default_field
        self.metrics = metrics
        self._analyzer_configs = dict(field_analyzers or {})
        self._analyzers: dict[str, Analyzer] = {}
        self._indexes: dict[str, InvertedIndex] = {}
        self._sources: dict[Any, dict] = {}
        self._ordinals: dict[Any, int] = {}
        self._ids_by_ordinal: dict[int, Any] = {}
        self._next_ordinal = 0
        # Mutation counter (index / delete): a cached result stamped
        # with an older value is stale (repro.ir.cache).
        self.epoch = 0

    # -- indexing ---------------------------------------------------------

    def index(self, doc_id: Any, fields: dict[str, str]) -> None:
        """Index (or re-index) a document's text fields."""
        if doc_id in self._ordinals:
            self.delete(doc_id)
        ordinal = self._next_ordinal
        self._next_ordinal += 1
        self._ordinals[doc_id] = ordinal
        self._ids_by_ordinal[ordinal] = doc_id
        self._sources[doc_id] = dict(fields)
        for field_name, text in fields.items():
            if not isinstance(text, str):
                continue
            analyzer = self._analyzer_for(field_name)
            tokens = analyzer.analyze(text)
            self._field_index(field_name).add_document(ordinal, tokens)
        self.epoch += 1

    def delete(self, doc_id: Any) -> bool:
        """Remove a document; returns False when it was absent."""
        ordinal = self._ordinals.pop(doc_id, None)
        if ordinal is None:
            return False
        del self._ids_by_ordinal[ordinal]
        self._sources.pop(doc_id, None)
        for index in self._indexes.values():
            index.remove_document(ordinal)
        self.epoch += 1
        return True

    @property
    def n_documents(self) -> int:
        return len(self._sources)

    # -- search ------------------------------------------------------------

    def search(
        self, query: str | dict, size: int = 10
    ) -> list[ScoredHit]:
        """Execute a query and return the top ``size`` hits by score.

        A plain string is sugar for ``{"match": {default_field: s}}``.
        """
        start = time.perf_counter()
        if isinstance(query, str):
            query = {"match": {self.default_field: query}}
        return self._rank(self._execute(query).items(), size, start)

    def _rank(self, scored, size: int, start: float) -> list[ScoredHit]:
        """Resolve ``(ordinal, score)`` pairs to the top ``size`` hits in
        ``(-score, str(doc_id))`` order and record the search metrics
        (``start`` is the query's ``perf_counter`` origin)."""
        by_doc_id = [
            (doc_id, score)
            for ordinal, score in scored
            if (doc_id := self._ids_by_ordinal.get(ordinal)) is not None
        ]
        by_doc_id.sort(key=lambda item: (-item[1], str(item[0])))
        hits = [
            ScoredHit(doc_id, score, self._sources.get(doc_id, {}))
            for doc_id, score in by_doc_id[:size]
        ]
        if self.metrics is not None:
            self.metrics.increment("engine.searches")
            self.metrics.increment("engine.hits", len(hits))
            self.metrics.record(
                "engine.search_seconds", time.perf_counter() - start
            )
        return hits

    def explain_terms(self, field: str, text: str) -> list[str]:
        """The analyzed terms a query against ``field`` would use."""
        return self._analyzer_for(field).terms(text)

    # -- query execution ------------------------------------------------------

    def _execute(self, query: dict) -> dict[int, float]:
        if not isinstance(query, dict) or len(query) != 1:
            raise SearchError(
                "query must be a dict with exactly one top-level clause"
            )
        kind, body = next(iter(query.items()))
        if kind == "match":
            return self._match(body)
        if kind == "match_phrase":
            return self._match_phrase(body)
        if kind == "multi_match":
            return self._multi_match(body)
        if kind == "term":
            return self._term(body)
        if kind == "bool":
            return self._bool(body)
        if kind == "match_all":
            return {ordinal: 1.0 for ordinal in self._ids_by_ordinal}
        raise SearchError(f"unknown query clause: {kind!r}")

    def _match(self, body: dict) -> dict[int, float]:
        field_name, text = self._unpack(body, "match")
        analyzer = self._analyzer_for(field_name)
        terms = analyzer.terms(str(text))
        if not terms:
            return {}
        scorer = BM25Scorer(self._field_index(field_name))
        return scorer.score_terms(terms)

    def _match_phrase(self, body: dict) -> dict[int, float]:
        field_name, text = self._unpack(body, "match_phrase")
        analyzer = self._analyzer_for(field_name)
        tokens = analyzer.analyze(str(text))
        # Collapse to one term per position (n-gram analyzers emit many);
        # keep the longest gram as the positional representative.
        by_position: dict[int, str] = {}
        for token in tokens:
            current = by_position.get(token.position)
            if current is None or len(token.term) > len(current):
                by_position[token.position] = token.term
        if not by_position:
            return {}
        # Keep the analyzed positions (stop filters leave gaps) so a
        # document phrase-matches its own text, as in ES.
        offsets = sorted(by_position)
        terms = [by_position[pos] for pos in offsets]
        index = self._field_index(field_name)
        scorer = BM25Scorer(index)
        base = scorer.score_terms(terms)
        out = {}
        for ordinal in base:
            if index.phrase_positions(ordinal, terms, offsets):
                out[ordinal] = base[ordinal] * 2.0  # phrase boost
        return out

    def _multi_match(self, body: dict) -> dict[int, float]:
        """``{"multi_match": {"query": text, "fields": ["title^2",
        "body"]}}`` — per-field BM25 with ``^boost`` suffixes, summed."""
        if not isinstance(body, dict) or "query" not in body:
            raise SearchError("multi_match requires a query")
        text = str(body["query"])
        fields = body.get("fields") or [self.default_field]
        combined: dict[int, float] = {}
        for spec in fields:
            field_name, _, boost_text = str(spec).partition("^")
            try:
                boost = float(boost_text) if boost_text else 1.0
            except ValueError as exc:
                raise SearchError(f"bad field boost: {spec!r}") from exc
            for ordinal, score in self._match({field_name: text}).items():
                combined[ordinal] = combined.get(ordinal, 0.0) + boost * score
        return combined

    def highlight(
        self, doc_id: Any, field: str, query_text: str, window: int = 60
    ) -> list[str]:
        """Query-term snippets from a stored document field."""
        from repro.search.highlight import highlight as run_highlight

        text = self._sources.get(doc_id, {}).get(field, "")
        if not isinstance(text, str):
            return []
        return run_highlight(
            self._analyzer_for(field), text, query_text, window=window
        )

    def _term(self, body: dict) -> dict[int, float]:
        field_name, value = self._unpack(body, "term")
        scorer = BM25Scorer(self._field_index(field_name))
        return scorer.score_terms([str(value)])

    def _bool(self, body: dict) -> dict[int, float]:
        if not isinstance(body, dict):
            raise SearchError("bool body must be a dict")
        must = [self._execute(q) for q in body.get("must", [])]
        should = [self._execute(q) for q in body.get("should", [])]
        must_not = [self._execute(q) for q in body.get("must_not", [])]

        if must:
            candidates = set(must[0])
            for scores in must[1:]:
                candidates &= set(scores)
        elif should:
            candidates = set()
            for scores in should:
                candidates |= set(scores)
        else:
            candidates = set(self._ids_by_ordinal)

        excluded = set()
        for scores in must_not:
            excluded |= set(scores)
        candidates -= excluded

        out: dict[int, float] = {}
        for ordinal in candidates:
            score = 0.0
            for scores in must:
                score += scores.get(ordinal, 0.0)
            for scores in should:
                score += scores.get(ordinal, 0.0)
            if not must and not should:
                score = 1.0
            out[ordinal] = score
        return out

    # -- internals --------------------------------------------------------------

    @staticmethod
    def _unpack(body: dict, clause: str) -> tuple[str, Any]:
        if not isinstance(body, dict) or len(body) != 1:
            raise SearchError(f"{clause} body must map one field to a value")
        return next(iter(body.items()))

    def _analyzer_for(self, field_name: str) -> Analyzer:
        analyzer = self._analyzers.get(field_name)
        if analyzer is None:
            config = self._analyzer_configs.get(
                field_name, STANDARD_ANALYZER_CONFIG
            )
            analyzer = create_analyzer(config)
            self._analyzers[field_name] = analyzer
        return analyzer

    def _field_index(self, field_name: str) -> InvertedIndex:
        index = self._indexes.get(field_name)
        if index is None:
            index = InvertedIndex()
            self._indexes[field_name] = index
        return index


def create_ir_engine() -> SearchEngine:
    """A :class:`SearchEngine` configured exactly as the paper's
    CREATe-IR keyword index (n-gram body field, standard title field)."""
    return SearchEngine(CREATE_IR_FIELD_ANALYZERS, default_field="body")
