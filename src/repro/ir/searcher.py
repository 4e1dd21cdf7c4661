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
from typing import TYPE_CHECKING, NamedTuple

from repro.graphdb.graph import Node, PropertyGraph
from repro.graphdb.match import (
    EdgePattern,
    GraphPattern,
    NodePattern,
)
from repro.ir.indexer import CreateIrIndexer
from repro.ir.query_parser import (
    ParsedQuery,
    QueryConceptMention,
    QueryParser,
)
from repro.ir.ranking import (
    fuse_results,
    label_stems,
    score_label,
    stem_tokens,
)
from repro.schema.types import is_event_label

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.metrics import MetricsRegistry
    from repro.ontology.normalize import ConceptNormalizer

# Score bonus per query relation a document's graph realises.
RELATION_BONUS = 1.0


@dataclass(frozen=True, slots=True)
class SearchResult:
    """One CREATe-IR result."""

    doc_id: str
    score: float
    engine: str  # "graph" or "keyword"


class ConceptCandidates(NamedTuple):
    """What graph search knows about one query concept.

    ``by_doc`` maps a doc id to the nodes that can stand for the
    concept there; ``similarity`` maps every distinct label of the
    concept's ``entityType`` to its :func:`~repro.ir.ranking.
    label_similarity` against the concept's surface.
    """

    by_doc: dict[str, list[Node]]
    similarity: dict[str, float]


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
        metrics: registry for the ``ir.*`` query counters and timings.
    """

    def __init__(
        self,
        indexer: CreateIrIndexer,
        parser: QueryParser | None = None,
        metrics: "MetricsRegistry | None" = None,
    ):
        self._indexer = indexer
        self._parser = parser
        self.metrics = metrics

    # -- public API ----------------------------------------------------------

    def search(self, query, size: int = 10) -> list[SearchResult]:
        """Search with a raw string (parsed) or a :class:`ParsedQuery`."""
        start = time.perf_counter()
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
                parsed.keyword_text(), size=size * 3
            )
        ]
        results = [
            SearchResult(doc_id, score, engine)
            for doc_id, score, engine in fuse_results(
                graph_ranked, keyword_ranked, size
            )
        ]
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
            for hit in self._indexer.engine.search(query_text, size=size)
        ]

    # -- graph search -----------------------------------------------------------

    def graph_search(self, parsed: ParsedQuery) -> list[GraphMatchDetail]:
        """Documents whose graphs match the query concepts/relations.

        EVENT concepts are *required* (conjunctive, like a cypher
        MATCH); ENTITY concepts (locations, ages, ...) are optional
        score bonuses — a query mentioning "the hospital" should not
        exclude reports from clinics.  Scoring per matched document:
        ``sum(label similarity per matched concept) + RELATION_BONUS *
        matched relations``.
        """
        if not parsed.concepts:
            return []
        graph = self._indexer.graph
        normalizer = self._indexer.normalizer

        required = [
            i
            for i, concept in enumerate(parsed.concepts)
            if is_event_label(concept.entity_type)
        ]
        if not required:
            required = list(range(len(parsed.concepts)))

        per_concept: list[ConceptCandidates] = []
        for i, concept in enumerate(parsed.concepts):
            candidates = concept_candidates(graph, normalizer, concept)
            per_concept.append(candidates)
            if i in required and not candidates.by_doc:
                return []

        shared_docs = set(per_concept[required[0]].by_doc)
        for i in required[1:]:
            shared_docs &= set(per_concept[i].by_doc)

        details = []
        for doc_id in sorted(shared_docs):
            detail = self._match_document(
                doc_id, parsed, per_concept, required
            )
            if detail is not None:
                details.append(detail)
        details.sort(key=lambda d: (-d.score, d.doc_id))
        return details

    def _match_document(
        self,
        doc_id: str,
        parsed: ParsedQuery,
        per_concept: list[ConceptCandidates],
        required: list[int],
    ) -> GraphMatchDetail | None:
        graph = self._indexer.graph
        pattern = GraphPattern()
        required_set = set(required)
        for i in required:
            allowed = {
                node.node_id for node in per_concept[i].by_doc.get(doc_id, [])
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

        bindings = _best_binding(graph, pattern, per_concept)
        if bindings is None:
            # Retry without relation constraints: concepts alone match.
            relaxed = GraphPattern(nodes=pattern.nodes, edges=[])
            bindings = _best_binding(graph, relaxed, per_concept)
            matched_relations = 0
        else:
            matched_relations = len(pattern.edges)
        if bindings is None:
            return None

        detail = GraphMatchDetail(doc_id=doc_id)
        score = 0.0
        for i in required:
            node = bindings[f"c{i}"]
            detail.concept_nodes[i] = node.node_id
            score += per_concept[i].similarity[str(node.get("label", ""))]
        # Optional (entity) concepts contribute when the document has a
        # matching node at all.
        for i, candidates in enumerate(per_concept):
            if i in required_set:
                continue
            nodes = candidates.by_doc.get(doc_id, [])
            if nodes:
                best = max(
                    candidates.similarity[str(node.get("label", ""))]
                    for node in nodes
                )
                score += 0.5 * best
                detail.concept_nodes[i] = nodes[0].node_id
        score += RELATION_BONUS * matched_relations
        detail.matched_relations = matched_relations
        detail.score = score
        return detail


def concept_candidates(
    graph: PropertyGraph,
    normalizer: ConceptNormalizer,
    concept: QueryConceptMention,
) -> ConceptCandidates:
    """Nodes that can stand for one query concept, grouped by doc id,
    and the similarity of every label of its type.

    Candidates are the concept's ``entityType`` nodes in
    :meth:`PropertyGraph.find_nodes` order.  Negated mentions (a report
    that *denies* the finding) never satisfy a positive query concept.
    Ontology standardization: a node matches when its normalized
    ``conceptId`` equals the query concept's ("shortness of breath"
    retrieves "dyspnea" mentions), else when its label matches the
    surface (:func:`~repro.ir.ranking.score_label`).

    The surface is stemmed once.  The graph's ``(entityType, label)``
    buckets (:meth:`PropertyGraph.type_labels`) then give one
    :func:`score_label` call per distinct label, which yields both the
    verdict and the similarity float, and the ids of every node it
    admits.  A label's stems come from
    :func:`~repro.ir.ranking.label_stems`, so each distinct label is
    stemmed once per process, not once per query concept.  Only the
    admitted nodes are fetched and sorted.
    """
    normalized = normalizer.normalize(concept.surface)
    query_concept_id = None if normalized is None else normalized.concept_id
    surface = concept.surface
    surface_stems = stem_tokens(surface)
    similarity: dict[str, float] = {}
    admitted: set[str] = set()
    for label, node_ids in graph.type_labels(concept.entity_type).items():
        similarity[label], hit = score_label(
            surface, surface_stems, label, label_stems(label)
        )
        if hit:
            admitted.update(node_ids)
    if query_concept_id is not None:
        admitted.update(
            node.node_id
            for node in graph.find_nodes(conceptId=query_concept_id)
            if node.get("entityType") == concept.entity_type
        )
    by_doc: dict[str, list[Node]] = {}
    for node_id in sorted(admitted):
        node = graph.node(node_id)
        if not node.get("negated"):
            by_doc.setdefault(str(node.get("doc_id", "")), []).append(node)
    return ConceptCandidates(by_doc, similarity)


def _best_binding(graph, pattern, per_concept):
    from repro.graphdb.match import match_pattern

    bindings = match_pattern(graph, pattern, limit=None)
    if not bindings:
        return None
    # Pick the binding with the highest total label similarity.
    def binding_score(binding):
        total = 0.0
        for i, candidates in enumerate(per_concept):
            node = binding.get(f"c{i}")
            if node is not None:
                total += candidates.similarity[str(node.get("label", ""))]
        return total

    return max(bindings, key=binding_score)
