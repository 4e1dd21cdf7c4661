"""Dual indexing of case reports: knowledge graph + keyword index.

Per the paper (section III-D), "a collection of case reports are
indexed separately on each search engine": every report's extracted
entities become graph nodes (``nodeId``, ``label``, ``entityType``)
connected by relation edges and loaded into the Neo4j analog, while
the report text goes into the ElasticSearch analog with the customized
n-gram analyzer.  Temporal edges are transitively closed before
indexing so relation search benefits from inferred orderings — the
"temporal reasoning" the paper advertises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.exceptions import TemporalInconsistencyError
from repro.graphdb.graph import PropertyGraph
from repro.schema.types import RelationType, TEMPORAL_RELATIONS
from repro.search.engine import SearchEngine
from repro.temporal.graph import TemporalGraph
from repro.temporal.relations import THREE_WAY_ALGEBRA


@dataclass
class IndexedReport:
    """What the dual index holds for one report.

    ``contradiction_skips`` / ``closure_failed`` are index-time
    diagnostics: set on the record :meth:`CreateIrIndexer.index_report`
    returns, not recoverable from the stores afterwards.
    """

    doc_id: str
    n_nodes: int
    n_explicit_edges: int
    n_inferred_edges: int
    contradiction_skips: int = 0
    closure_failed: bool = False


def _is_temporal(label: str) -> bool:
    try:
        return RelationType(label) in TEMPORAL_RELATIONS
    except ValueError:
        return False


class CreateIrIndexer:
    """Builds the two CREATe-IR indexes from extracted report structure.

    Args:
        graph: target property graph (created when omitted).
        engine: target keyword engine (paper-configured when omitted).
        close_temporal: transitively close temporal edges before
            indexing (set False for the "no temporal reasoning"
            ablation).

    ``engine`` is a :class:`SearchEngine` or anything that offers what
    the indexer and searcher call: ``index`` / ``delete`` / ``search``
    / ``highlight`` / ``n_documents``.
    """

    def __init__(
        self,
        graph: PropertyGraph | None = None,
        engine: SearchEngine | None = None,
        close_temporal: bool = True,
        normalizer: "ConceptNormalizer | None" = None,
    ):
        from repro.ontology.normalize import ConceptNormalizer

        self.graph = graph if graph is not None else PropertyGraph()
        self.engine = engine if engine is not None else SearchEngine()
        self.close_temporal = close_temporal
        self.normalizer = (
            normalizer if normalizer is not None else ConceptNormalizer()
        )
        self.graph.create_property_index("entityType")
        self.graph.create_property_index("doc_id")
        self.graph.create_property_index("conceptId")
        # Degraded-indexing visibility: how many contradictory edges
        # were skipped and how many reports lost their transitive
        # closure entirely.  Surfaced through /stats and PipelineStats.
        self.contradiction_skips = 0
        self.closure_failures = 0

    # -- indexing -----------------------------------------------------------

    def index_report(
        self,
        doc_id: str,
        text: str,
        spans: Sequence[tuple[str, int, int, str]],
        relations: Sequence[tuple[str, str, str]],
        negated_span_ids: Sequence[str] = (),
    ) -> IndexedReport:
        """Index one report into both engines.

        Args:
            doc_id: report identifier.
            text: the report text, for the keyword index.
            spans: ``(span_id, surface, label, kind)`` tuples — the
                span's id, surface text, schema label, and
                ``"event"``/``"entity"``.
            relations: ``(source_span_id, target_span_id, label)``.
            negated_span_ids: span ids carrying a Negated attribute;
                their nodes are flagged so graph search skips them.
        """
        self.engine.index(doc_id, text)

        negated = set(negated_span_ids)
        node_ids = set()
        for span_id, surface, label, _kind in spans:
            node_id = f"{doc_id}:{span_id}"
            properties = {
                "nodeId": node_id,
                "label": surface,
                "entityType": label,
                "doc_id": doc_id,
            }
            if span_id in negated:
                properties["negated"] = True
            # Ontology standardization (paper section I): every node is
            # stamped with its normalized concept id when one resolves.
            normalized = self.normalizer.normalize(surface)
            if normalized is not None:
                properties["conceptId"] = normalized.concept_id
            # What ``CREATE (n:Concept {...})`` does, without rendering
            # the statement for the cypher engine to parse back.
            self.graph.add_node(node_id, **properties, _label="Concept")
            node_ids.add(node_id)

        # Temporal edges are direction-normalized: AFTER(a, b) is stored
        # as BEFORE(b, a), so graph search only ever needs to look for
        # BEFORE and OVERLAP edge labels.
        explicit = 0
        contradiction_skips = 0
        temporal_graph = TemporalGraph(algebra=THREE_WAY_ALGEBRA)
        for source, target, label in relations:
            src_node = f"{doc_id}:{source}"
            tgt_node = f"{doc_id}:{target}"
            if src_node not in node_ids or tgt_node not in node_ids:
                continue
            if label == "AFTER":
                src_node, tgt_node, label = tgt_node, src_node, "BEFORE"
            self.graph.add_edge(src_node, tgt_node, label, inferred=False)
            explicit += 1
            if self.close_temporal and _is_temporal(label):
                try:
                    temporal_graph.add(src_node, tgt_node, label)
                except TemporalInconsistencyError:
                    # Extraction noise can contradict itself; keep the
                    # first-seen edge and skip the contradiction.
                    contradiction_skips += 1
        self.contradiction_skips += contradiction_skips

        inferred = 0
        closure_failed = False
        if self.close_temporal:
            try:
                temporal_graph.close()
            except TemporalInconsistencyError:
                # Partial closure is still useful, but degraded temporal
                # search must be visible, not silent.
                closure_failed = True
                self.closure_failures += 1
            else:
                existing = {
                    (edge.source, edge.target)
                    for node in node_ids
                    for edge in self.graph.out_edges(node)
                }
                for source, target, label in temporal_graph.edges():
                    if label == "AFTER":
                        source, target, label = target, source, "BEFORE"
                    if (source, target) in existing or (
                        (target, source) in existing and label == "OVERLAP"
                    ):
                        continue
                    existing.add((source, target))
                    self.graph.add_edge(source, target, label, inferred=True)
                    inferred += 1

        return IndexedReport(
            doc_id,
            len(node_ids),
            explicit,
            inferred,
            contradiction_skips=contradiction_skips,
            closure_failed=closure_failed,
        )

    def index_annotation_document(self, doc_id, annotation_doc):
        """Convenience: index straight from an annotation document."""
        from repro.schema.types import label_kind
        from repro.exceptions import SchemaError

        spans = []
        for tb in annotation_doc.spans_sorted():
            try:
                kind = label_kind(tb.label)
            except SchemaError:
                kind = "entity"
            spans.append((tb.ann_id, tb.text, tb.label, kind))
        relations = [
            (rel.source, rel.target, rel.label)
            for rel in annotation_doc.relations.values()
        ]
        negated = [
            attribute.target
            for attribute in annotation_doc.attributes.values()
            if attribute.label == "Negated"
        ]
        return self.index_report(
            doc_id,
            annotation_doc.text,
            spans,
            relations,
            negated_span_ids=negated,
        )

    def delete_report(self, doc_id: str) -> bool:
        """Remove one report from both indexes; False when the keyword
        index did not hold it."""
        deleted = self.engine.delete(doc_id)
        for node in self.graph.find_nodes(doc_id=doc_id):
            self.graph.remove_node(node.node_id)
        return deleted

    # -- store views ---------------------------------------------------------

    # Report accounting reads the stores instead of keeping a private
    # ledger: keyword-only registrations and deletes reach the stores
    # without passing through ``index_report``.

    @property
    def n_reports(self) -> int:
        """Reports currently in the keyword index."""
        return self.engine.n_documents

    def stats(self) -> dict:
        """Aggregate indexing health counters (for ``/stats``)."""
        return {
            "n_reports": self.n_reports,
            "contradiction_skips": self.contradiction_skips,
            "closure_failures": self.closure_failures,
        }

    def report_stats(self, doc_id: str) -> IndexedReport | None:
        """One report's graph footprint (None when it has no nodes)."""
        nodes = self.graph.find_nodes(doc_id=doc_id)
        if not nodes:
            return None
        inferred = [
            bool(edge.get("inferred"))
            for node in nodes
            for edge in self.graph.out_edges(node.node_id)
        ]
        return IndexedReport(
            doc_id,
            len(nodes),
            inferred.count(False),
            inferred.count(True),
        )
