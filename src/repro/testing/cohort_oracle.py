"""Brute-force per-document cohort evaluation.

The :class:`BruteForceCohortEvaluator` answers every criterion by
linear scans over per-report source data — it never consults the shared
property graph, the inverted index, the planner, or the docstore query
compiler, so it is a complete independent oracle for
:class:`repro.cohort.CohortEngine`:

* entity criteria scan each report's text-bound spans directly;
* temporal / graph criteria run :func:`repro.testing.oracles.
  brute_force_bindings` (exhaustive injective enumeration) over a
  per-report graph rebuilt from the annotations, with the temporal
  closure recomputed by :func:`repro.testing.oracles.reference_closure`
  rather than ``TemporalGraph.close``;
* text criteria ask the linear-scan :class:`ReferenceSearchEngine`;
* value criteria evaluate a hand-rolled Mongo-semantics predicate on
  the raw metadata dict.

Because every criterion is a per-report predicate, membership is just
"all inclusions hold, no exclusion holds" document by document.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.annotation.model import AnnotationDocument
from repro.cohort.model import (
    CohortDefinition,
    EntityCriterion,
    GraphCriterion,
    TemporalCriterion,
    TextCriterion,
    ValueCriterion,
)
from repro.exceptions import CohortError
from repro.graphdb.graph import PropertyGraph
from repro.graphdb.match import EdgePattern, GraphPattern, NodePattern
from repro.temporal.relations import THREE_WAY_ALGEBRA
from repro.testing.oracles import (
    ReferenceSearchEngine,
    brute_force_bindings,
    reference_closure,
)

_TEMPORAL_LABELS = ("BEFORE", "AFTER", "OVERLAP")

_MISSING = object()


@dataclass
class _Report:
    """One report's source data plus its lazily built per-doc graph."""

    doc_id: str
    document: dict
    annotations: AnnotationDocument | None
    _graph: PropertyGraph | None = field(default=None, repr=False)

    def graph(self, normalizer=None) -> PropertyGraph:
        if self._graph is None:
            self._graph = _build_report_graph(
                self.doc_id, self.annotations, normalizer
            )
        return self._graph


def _build_report_graph(
    doc_id: str, annotations: AnnotationDocument | None, normalizer
) -> PropertyGraph:
    """Rebuild the mention graph of one report from its annotations.

    Mirrors the indexer's *construction contract* (node properties,
    AFTER direction-normalization, first-seen contradiction skipping,
    closure-inferred edge dedup) but computes the closure with the
    reference Floyd–Warshall oracle instead of ``TemporalGraph``.
    """
    graph = PropertyGraph()
    if annotations is None:
        return graph
    negated = {
        attribute.target
        for attribute in annotations.attributes.values()
        if attribute.label == "Negated"
    }
    span_ids = set()
    for tb in annotations.spans_sorted():
        node_id = f"{doc_id}:{tb.ann_id}"
        properties = {
            "nodeId": node_id,
            "label": tb.text,
            "entityType": tb.label,
            "doc_id": doc_id,
        }
        if tb.ann_id in negated:
            properties["negated"] = True
        if normalizer is not None:
            normalized = normalizer.normalize(tb.text)
            if normalized is not None:
                properties["conceptId"] = normalized.concept_id
        graph.add_node(node_id, **properties)
        span_ids.add(node_id)

    explicit: list[tuple[str, str, str]] = []
    for rel in annotations.relations.values():
        source = f"{doc_id}:{rel.source}"
        target = f"{doc_id}:{rel.target}"
        label = rel.label
        if source not in span_ids or target not in span_ids:
            continue
        if label == "AFTER":
            source, target, label = target, source, "BEFORE"
        graph.add_edge(source, target, label, inferred=False)
        explicit.append((source, target, label))

    # Temporal closure over the consistent explicit subset: pairs keep
    # their first-seen label, later contradictions are dropped (the
    # same policy the indexer applies to extraction noise).
    accepted: dict[tuple[str, str], str] = {}
    for source, target, label in explicit:
        if label not in _TEMPORAL_LABELS or source == target:
            continue
        if source <= target:
            key, stored = (source, target), label
        else:
            key = (target, source)
            stored = THREE_WAY_ALGEBRA.inverse(label)
        if key in accepted:
            continue  # duplicate or contradiction: first edge wins
        accepted[key] = stored
    status, closure = reference_closure(
        [(a, b, label) for (a, b), label in accepted.items()],
        THREE_WAY_ALGEBRA,
    )
    if status != "ok":
        return graph  # closure failed: explicit edges only

    existing = {(source, target) for source, target, _label in explicit}
    for (a, b), label in sorted(closure.items()):
        source, target = a, b
        if label == "AFTER":
            source, target, label = b, a, "BEFORE"
        if (source, target) in existing or (
            (target, source) in existing and label == "OVERLAP"
        ):
            continue
        existing.add((source, target))
        graph.add_edge(source, target, label, inferred=True)
    return graph


def _value_matches(document: dict, criterion: ValueCriterion) -> bool:
    """Mongo field semantics, restated: dotted paths descend dicts, an
    array field matches when any element matches, and ordered
    comparisons never cross types."""
    value: object = document
    for segment in criterion.field.split("."):
        if isinstance(value, dict) and segment in value:
            value = value[segment]
        else:
            value = _MISSING
            break

    def any_element(check) -> bool:
        if value is _MISSING:
            return False
        if check(value):
            return True
        if isinstance(value, list):
            return any(check(item) for item in value)
        return False

    def comparable(a, b) -> bool:
        if isinstance(a, bool) or isinstance(b, bool):
            return isinstance(a, bool) and isinstance(b, bool)
        if isinstance(a, (int, float)) and isinstance(b, (int, float)):
            return True
        return type(a) is type(b)

    operand = criterion.value
    if criterion.op == "eq":
        return any_element(lambda v: v == operand)
    if criterion.op == "ne":
        return not any_element(lambda v: v == operand)
    if criterion.op == "gte":
        return any_element(
            lambda v: comparable(v, operand) and v >= operand
        )
    if criterion.op == "lte":
        return any_element(
            lambda v: comparable(v, operand) and v <= operand
        )
    if criterion.op == "between":
        low, high = operand
        return any_element(
            lambda v: comparable(v, low)
            and comparable(v, high)
            and low <= v <= high
        )
    if criterion.op == "in":
        members = list(operand)
        return any_element(lambda v: v in members)
    raise CohortError(f"unknown value op {criterion.op!r}")


class BruteForceCohortEvaluator:
    """Per-document cohort oracle over raw report data.

    Args:
        normalizer: optional ontology normalizer; pass the same one the
            production indexer uses so ``conceptId`` node properties
            agree between both sides.
    """

    def __init__(self, normalizer=None):
        self.normalizer = normalizer
        self._reports: dict[str, _Report] = {}
        self._search = ReferenceSearchEngine()

    def add_report(
        self,
        doc_id: str,
        document: dict,
        annotations: AnnotationDocument | None,
    ) -> None:
        body = annotations.text if annotations is not None else ""
        self._reports[doc_id] = _Report(doc_id, document, annotations)
        self._search.index(doc_id, body)

    def remove_report(self, doc_id: str) -> None:
        self._reports.pop(doc_id, None)
        self._search.delete(doc_id)

    @property
    def doc_ids(self) -> list[str]:
        return sorted(self._reports)

    # -- per-criterion evaluation -------------------------------------------

    def _spec_pattern(self, var: str, spec) -> NodePattern:
        def admit(node) -> bool:
            return spec.matches(
                str(node.properties.get("entityType", "")),
                str(node.properties.get("label", "")),
                bool(node.properties.get("negated", False)),
            )

        return NodePattern(var, predicate=admit)

    def _holds(self, criterion, report: _Report) -> bool:
        if isinstance(criterion, EntityCriterion):
            if report.annotations is None:
                return False
            negated = {
                attribute.target
                for attribute in report.annotations.attributes.values()
                if attribute.label == "Negated"
            }
            return any(
                criterion.spec.matches(
                    tb.label, tb.text, tb.ann_id in negated
                )
                for tb in report.annotations.spans_sorted()
            )
        if isinstance(criterion, TemporalCriterion):
            relation, a, b = criterion.relation, criterion.a, criterion.b
            if relation == "AFTER":
                relation, a, b = "BEFORE", b, a
            pattern = GraphPattern(
                nodes=[
                    self._spec_pattern("a", a),
                    self._spec_pattern("b", b),
                ],
                edges=[
                    EdgePattern(
                        "a", "b", relation, directed=relation == "BEFORE"
                    )
                ],
            )
            return bool(
                brute_force_bindings(
                    report.graph(self.normalizer), pattern
                )
            )
        if isinstance(criterion, GraphCriterion):
            pattern = GraphPattern(
                nodes=[
                    NodePattern(var, properties=props)
                    for var, props in criterion.nodes
                ],
                edges=[
                    EdgePattern(src, dst, label, directed=directed)
                    for src, dst, label, directed in criterion.edges
                ],
            )
            return bool(
                brute_force_bindings(
                    report.graph(self.normalizer), pattern
                )
            )
        if isinstance(criterion, TextCriterion):
            hits = self._search.search(
                criterion.query, size=max(1, self._search.n_documents)
            )
            return report.doc_id in {doc_id for doc_id, _score in hits}
        if isinstance(criterion, ValueCriterion):
            return _value_matches(report.document, criterion)
        raise CohortError(f"unknown criterion: {type(criterion).__name__}")

    def candidates(self, criterion) -> set[str]:
        """Every report the criterion holds for (the analog of the
        engine's per-criterion candidate set)."""
        return {
            doc_id
            for doc_id, report in self._reports.items()
            if self._holds(criterion, report)
        }

    def evaluate(self, definition: CohortDefinition) -> list[str]:
        """Sorted member ids, one linear pass per report."""
        members = []
        for doc_id in sorted(self._reports):
            report = self._reports[doc_id]
            if all(
                self._holds(criterion, report)
                for criterion in definition.inclusion
            ) and not any(
                self._holds(criterion, report)
                for criterion in definition.exclusion
            ):
                members.append(doc_id)
        return members
