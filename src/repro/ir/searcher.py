"""The CREATe-IR search workflow (paper Figure 6).

1. Parse the user query with the extraction models.
2. **Graph search** (Neo4j analog, the primary engine): find documents
   whose knowledge graph contains nodes matching the query concepts —
   same ``entityType``, fuzzily matching ``label`` — and, when the
   query carries temporal relations, edges realizing them (explicit or
   transitively inferred at index time).
3. **Keyword search** (ElasticSearch analog): BM25 over the n-gram
   body field.
4. Fuse: graph results on top, keyword results after.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.graphdb.match import (
    EdgePattern,
    GraphPattern,
    NodePattern,
)
from repro.ir.indexer import CreateIrIndexer
from repro.ir.query_parser import ParsedQuery, QueryParser
from repro.ir.ranking import fuse_results, label_similarity, labels_match
from repro.schema.types import is_event_label

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.metrics import MetricsRegistry
    from repro.ir.cache import QueryCache


@dataclass(frozen=True, slots=True)
class SearchResult:
    """One CREATe-IR result."""

    doc_id: str
    score: float
    engine: str  # "graph" or "keyword"


@dataclass
class GraphMatchDetail:
    """Explanation of one document's graph match (for the UI layer)."""

    doc_id: str
    concept_nodes: dict[int, str] = field(default_factory=dict)
    matched_relations: int = 0
    score: float = 0.0


class CreateIrSearcher:
    """Executes parsed queries against the dual index.

    Args:
        indexer: the populated :class:`CreateIrIndexer`.
        parser: query parser (None = accept only pre-parsed queries).
        relation_bonus: score bonus per matched query relation.

    ``cache`` (public, ``None`` by default, set like ``metrics``) is an
    optional fused-result cache: ``searcher.cache = QueryCache(n,
    indexer.epochs)``.  String queries are then served from it while
    neither store has mutated since the entry was computed.
    """

    def __init__(
        self,
        indexer: CreateIrIndexer,
        parser: QueryParser | None = None,
        relation_bonus: float = 1.0,
        metrics: "MetricsRegistry | None" = None,
    ):
        self._indexer = indexer
        self._parser = parser
        self.relation_bonus = relation_bonus
        self.metrics = metrics
        self.cache: "QueryCache | None" = None

    # -- public API ----------------------------------------------------------

    def search(self, query, size: int = 10) -> list[SearchResult]:
        """Search with a raw string (parsed) or a :class:`ParsedQuery`."""
        start = time.perf_counter()
        key = None
        stamp = None
        if self.cache is not None and isinstance(query, str):
            key = ("ir", query, size)
            cached = self.cache.get(key)
            if cached is not None:
                if self.metrics is not None:
                    self.metrics.increment("ir.searches")
                    self.metrics.increment("ir.cache_hits")
                    self.metrics.record(
                        "ir.search_seconds", time.perf_counter() - start
                    )
                return list(cached)
            # Stamp BEFORE executing: a mutation landing mid-query must
            # make this entry stale at store time.
            stamp = self._indexer.epochs()
        if isinstance(query, str):
            if self._parser is None:
                parsed = ParsedQuery(text=query)
            else:
                parsed = self._parser.parse(query)
        else:
            parsed = query
        parse_done = time.perf_counter()
        graph_ranked = [
            (detail.doc_id, detail.score)
            for detail in self.graph_search(parsed)
        ]
        graph_done = time.perf_counter()
        keyword_ranked = [
            (hit.doc_id, hit.score)
            for hit in self._indexer.engine.search(
                {"match": {"body": parsed.keyword_text()}}, size=size * 3
            )
        ]
        results = [
            SearchResult(doc_id, score, engine)
            for doc_id, score, engine in fuse_results(
                graph_ranked, keyword_ranked, size
            )
        ]
        if key is not None:
            self.cache.put(key, list(results), stamp=stamp)
        if self.metrics is not None:
            self.metrics.increment("ir.searches")
            self.metrics.increment("ir.graph_candidates", len(graph_ranked))
            self.metrics.increment(
                "ir.keyword_candidates", len(keyword_ranked)
            )
            self.metrics.record(
                "ir.query_parse_seconds", parse_done - start
            )
            self.metrics.record(
                "ir.graph_search_seconds", graph_done - parse_done
            )
            self.metrics.record(
                "ir.search_seconds", time.perf_counter() - start
            )
        return results

    def keyword_only(self, query_text: str, size: int = 10) -> list[SearchResult]:
        """Ablation: skip the graph engine entirely."""
        return [
            SearchResult(hit.doc_id, hit.score, "keyword")
            for hit in self._indexer.engine.search(
                {"match": {"body": query_text}}, size=size
            )
        ]

    # -- graph search -----------------------------------------------------------

    def graph_search(self, parsed: ParsedQuery) -> list[GraphMatchDetail]:
        """Documents whose graphs match the query concepts/relations.

        EVENT concepts are *required* (conjunctive, like a cypher
        MATCH); ENTITY concepts (locations, ages, ...) are optional
        score bonuses — a query mentioning "the hospital" should not
        exclude reports from clinics.  Scoring per matched document:
        ``sum(label similarity per matched concept) + relation_bonus *
        matched relations``.
        """
        if not parsed.concepts:
            return []
        graph = self._indexer.graph

        required = [
            i
            for i, concept in enumerate(parsed.concepts)
            if is_event_label(concept.entity_type)
        ]
        if not required:
            required = list(range(len(parsed.concepts)))

        # Candidate docs per concept.  Negated mentions (a report that
        # *denies* the finding) never satisfy a positive query concept.
        # Ontology standardization: a node also matches when its
        # normalized conceptId equals the query concept's ("shortness
        # of breath" retrieves "dyspnea" mentions).
        normalizer = getattr(self._indexer, "normalizer", None)
        per_concept_docs: dict[int, dict[str, list]] = {}
        for i, concept in enumerate(parsed.concepts):
            query_concept_id = None
            if normalizer is not None:
                normalized = normalizer.normalize(concept.surface)
                if normalized is not None:
                    query_concept_id = normalized.concept_id
            candidates: dict[str, list] = {}
            for node in graph.find_nodes(entityType=concept.entity_type):
                if node.get("negated"):
                    continue
                node_label = str(node.get("label", ""))
                concept_hit = (
                    query_concept_id is not None
                    and node.get("conceptId") == query_concept_id
                )
                if concept_hit or labels_match(concept.surface, node_label):
                    doc_id = str(node.get("doc_id", ""))
                    candidates.setdefault(doc_id, []).append(node)
            per_concept_docs[i] = candidates
            if i in required and not candidates:
                return []

        shared_docs = set(per_concept_docs[required[0]])
        for i in required[1:]:
            shared_docs &= set(per_concept_docs[i])

        details = []
        for doc_id in sorted(shared_docs):
            detail = self._match_document(
                doc_id, parsed, per_concept_docs, required
            )
            if detail is not None:
                details.append(detail)
        details.sort(key=lambda d: (-d.score, d.doc_id))
        return details

    def _match_document(
        self,
        doc_id: str,
        parsed: ParsedQuery,
        per_concept_docs: dict[int, dict[str, list]],
        required: list[int],
    ) -> GraphMatchDetail | None:
        graph = self._indexer.graph
        pattern = GraphPattern()
        required_set = set(required)
        for i in required:
            concept = parsed.concepts[i]
            allowed = {
                node.node_id for node in per_concept_docs[i].get(doc_id, [])
            }
            if not allowed:
                return None
            pattern.nodes.append(
                NodePattern(
                    f"c{i}",
                    (("doc_id", doc_id),),
                    predicate=lambda node, allowed=allowed: node.node_id
                    in allowed,
                )
            )
        for src_idx, tgt_idx, label in parsed.relations:
            if src_idx not in required_set or tgt_idx not in required_set:
                continue
            # The index stores temporal edges normalized to
            # BEFORE/OVERLAP, so AFTER queries flip direction.
            if label == "AFTER":
                src_idx, tgt_idx, label = tgt_idx, src_idx, "BEFORE"
            pattern.edges.append(
                EdgePattern(
                    f"c{src_idx}",
                    f"c{tgt_idx}",
                    label,
                    directed=label != "OVERLAP",
                )
            )

        bindings = _best_binding(graph, pattern, parsed)
        if bindings is None:
            # Retry without relation constraints: concepts alone match.
            relaxed = GraphPattern(nodes=pattern.nodes, edges=[])
            bindings = _best_binding(graph, relaxed, parsed)
            matched_relations = 0
        else:
            matched_relations = len(pattern.edges)
        if bindings is None:
            return None

        detail = GraphMatchDetail(doc_id=doc_id)
        score = 0.0
        for i in required:
            concept = parsed.concepts[i]
            node = bindings[f"c{i}"]
            detail.concept_nodes[i] = node.node_id
            score += label_similarity(
                concept.surface, str(node.get("label", ""))
            )
        # Optional (entity) concepts contribute when the document has a
        # matching node at all.
        for i, concept in enumerate(parsed.concepts):
            if i in required_set:
                continue
            nodes = per_concept_docs[i].get(doc_id, [])
            if nodes:
                best = max(
                    label_similarity(
                        concept.surface, str(node.get("label", ""))
                    )
                    for node in nodes
                )
                score += 0.5 * best
                detail.concept_nodes[i] = nodes[0].node_id
        score += self.relation_bonus * matched_relations
        detail.matched_relations = matched_relations
        detail.score = score
        return detail


def _best_binding(graph, pattern, parsed):
    from repro.graphdb.match import match_pattern

    bindings = match_pattern(graph, pattern, limit=None)
    if not bindings:
        return None
    # Pick the binding with the highest total label similarity.
    def binding_score(binding):
        total = 0.0
        for i, concept in enumerate(parsed.concepts):
            node = binding.get(f"c{i}")
            if node is not None:
                total += label_similarity(
                    concept.surface, str(node.get("label", ""))
                )
        return total

    return max(bindings, key=binding_score)
