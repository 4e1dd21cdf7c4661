"""The cohort engine: compile criteria to backing stores, intersect.

Each criterion compiles to the cheapest store that can answer it:

* ``entity``   — ``entityType`` property-index scan on the graph;
* ``temporal`` / ``graph`` — planner-driven :func:`match_pattern`
  (join order chosen from the graph's exact cardinality statistics);
* ``text``     — the keyword engine's match query;
* ``value``    — a docstore aggregation pipeline.

Evaluation intersects candidate report sets in ascending order of
*estimated* cardinality (reusing the same statistics the graph planner
consults: ``entityType`` bucket counts, edge-label histograms, plan
estimates), so a selective criterion runs first and an empty running
intersection short-circuits everything after it.  Because every
criterion is a per-report predicate, the short-circuit order never
changes membership — the property the ``cohort`` fuzz subsystem checks
against the brute-force per-document oracle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from repro.annotation.model import AnnotationDocument
from repro.cohort.model import (
    CohortDefinition,
    EntityCriterion,
    GraphCriterion,
    MentionSpec,
    TemporalCriterion,
    TextCriterion,
    ValueCriterion,
)
from repro.docstore.store import DocumentStore
from repro.exceptions import CohortError
from repro.graphdb.graph import Node, PropertyGraph
from repro.graphdb.match import (
    EdgePattern,
    GraphPattern,
    NodePattern,
    match_pattern,
)
from repro.graphdb.planner import plan_pattern


@dataclass
class CriterionReport:
    """How one criterion was (or was not) evaluated.

    Attributes:
        criterion: the criterion's JSON form.
        role: ``"inclusion"`` or ``"exclusion"``.
        backend: store that answered it (``graph`` / ``planner`` /
            ``search`` / ``docstore``), or ``""`` when skipped.
        estimated: the planner-statistics cardinality estimate used for
            ordering (rows for pattern criteria, candidate mentions for
            entity criteria, report count otherwise).
        candidates: size of the criterion's candidate report set
            (-1 when short-circuited before evaluation).
        seconds: wall-clock evaluation time (0.0 when skipped).
        skipped: True when the running intersection emptied before this
            criterion's turn.
    """

    criterion: dict
    role: str
    backend: str = ""
    estimated: float = 0.0
    candidates: int = -1
    seconds: float = 0.0
    skipped: bool = False

    def as_dict(self) -> dict:
        return {
            "criterion": self.criterion,
            "role": self.role,
            "backend": self.backend,
            "estimated": round(self.estimated, 3),
            "candidates": self.candidates,
            "seconds": self.seconds,
            "skipped": self.skipped,
        }


@dataclass
class CohortResult:
    """One cohort evaluation: members plus per-criterion diagnostics."""

    name: str
    members: list[str]
    reports: list[CriterionReport] = field(default_factory=list)
    seconds: float = 0.0
    population: int = 0

    @property
    def size(self) -> int:
        return len(self.members)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "size": self.size,
            "population": self.population,
            "seconds": self.seconds,
            "criteria": [report.as_dict() for report in self.reports],
        }


def _mention_predicate(spec: MentionSpec) -> Callable[[Node], bool]:
    def admit(node: Node) -> bool:
        return spec.matches(
            str(node.properties.get("entityType", "")),
            str(node.properties.get("label", "")),
            bool(node.properties.get("negated", False)),
        )

    return admit


def _spec_node_pattern(var: str, spec: MentionSpec) -> NodePattern:
    """A planner-visible pattern node for a mention spec.

    The ``entityType`` equality is expressed as an indexed property so
    the planner sees its exact bucket cardinality; surface/negation
    checks ride along as an opaque predicate.
    """
    properties = ()
    if spec.entity_type is not None:
        properties = (("entityType", spec.entity_type),)
    return NodePattern(
        var, properties=properties, predicate=_mention_predicate(spec)
    )


class CohortEngine:
    """Compiles and evaluates :class:`CohortDefinition` over the three
    stores of one assembled system.

    Args:
        store: document store holding report metadata (collection
            ``reports``).
        graph: the property graph of extracted mentions (nodes carry
            ``doc_id`` / ``entityType`` / ``label`` / ``negated``).
        search: keyword engine indexed with the same reports.
        annotations: span lookup ``doc_id -> AnnotationDocument | None``
            used by the FHIR exporter for provenance offsets.
    """

    def __init__(
        self,
        store: DocumentStore,
        graph: PropertyGraph,
        search,
        annotations: Callable[[str], AnnotationDocument | None]
        | None = None,
    ):
        self.store = store
        self.graph = graph
        self.search = search
        self.annotations = annotations or (lambda doc_id: None)
        self.counters = {
            "cohorts_evaluated": 0,
            "criteria_evaluated": 0,
            "criteria_short_circuited": 0,
            "backend_graph": 0,
            "backend_planner": 0,
            "backend_search": 0,
            "backend_docstore": 0,
        }
        self._last: dict[str, dict] = {}

    # -- population ----------------------------------------------------------

    def population(self) -> set[str]:
        """Every report id (the base population for exclusion-only
        cohorts and the universe the oracle iterates)."""
        return {
            doc["_id"]
            for doc in self.store.collection("reports").find(
                projection=[]
            )
        }

    # -- estimation ----------------------------------------------------------

    def estimate(self, criterion) -> float:
        """Estimated candidate cardinality, from exact statistics.

        Entity criteria read the ``entityType`` index bucket size;
        pattern criteria ask the graph planner for its estimated row
        count; text and value criteria fall back to the report count
        (they scan an index/collection whose output is bounded by it).
        """
        if isinstance(criterion, EntityCriterion):
            if criterion.spec.entity_type is not None:
                count = self.graph.property_value_count(
                    "entityType", criterion.spec.entity_type
                )
                if count is not None:
                    return float(count)
            return float(self.graph.n_nodes)
        if isinstance(criterion, (TemporalCriterion, GraphCriterion)):
            pattern = self._pattern_for(criterion)
            if not pattern.nodes:
                return 0.0
            return plan_pattern(self.graph, pattern).estimated_total
        return float(len(self.store.collection("reports")))

    # -- compilation ---------------------------------------------------------

    def _pattern_for(self, criterion) -> GraphPattern:
        if isinstance(criterion, TemporalCriterion):
            relation, a, b = (
                criterion.relation,
                criterion.a,
                criterion.b,
            )
            if relation == "AFTER":  # stored direction-normalized
                relation, a, b = "BEFORE", b, a
            return GraphPattern(
                nodes=[
                    _spec_node_pattern("a", a),
                    _spec_node_pattern("b", b),
                ],
                edges=[
                    EdgePattern(
                        "a", "b", relation, directed=relation == "BEFORE"
                    )
                ],
            )
        if isinstance(criterion, GraphCriterion):
            return GraphPattern(
                nodes=[
                    NodePattern(var, properties=props)
                    for var, props in criterion.nodes
                ],
                edges=[
                    EdgePattern(src, dst, label, directed=directed)
                    for src, dst, label, directed in criterion.edges
                ],
            )
        raise CohortError(
            f"no graph pattern for {type(criterion).__name__}"
        )

    def candidates(self, criterion) -> tuple[set[str], str]:
        """Evaluate one criterion: (matching report ids, backend name)."""
        if isinstance(criterion, EntityCriterion):
            spec = criterion.spec
            if spec.entity_type is not None:
                nodes = self.graph.find_nodes(entityType=spec.entity_type)
            else:
                nodes = list(self.graph.nodes())
            admit = _mention_predicate(spec)
            return (
                {
                    str(node.properties["doc_id"])
                    for node in nodes
                    if "doc_id" in node.properties and admit(node)
                },
                "graph",
            )
        if isinstance(criterion, (TemporalCriterion, GraphCriterion)):
            pattern = self._pattern_for(criterion)
            matched: set[str] = set()
            for binding in match_pattern(self.graph, pattern):
                doc_ids = {
                    node.properties.get("doc_id")
                    for node in binding.values()
                }
                if len(doc_ids) != 1:
                    continue  # bindings spanning reports are not cohort hits
                if isinstance(criterion, TemporalCriterion) and len(
                    {node.node_id for node in binding.values()}
                ) != len(binding):
                    continue  # a-b must be distinct mentions
                doc_id = doc_ids.pop()
                if doc_id is not None:
                    matched.add(str(doc_id))
            return matched, "planner"
        if isinstance(criterion, TextCriterion):
            size = max(1, self.search.n_documents)
            hits = self.search.search(criterion.query, size=size)
            return {str(hit.doc_id) for hit in hits}, "search"
        if isinstance(criterion, ValueCriterion):
            rows = self.store.collection("reports").aggregate(
                [
                    {"$match": _value_query(criterion)},
                    {"$project": {"_id": 1}},
                ]
            )
            return {row["_id"] for row in rows}, "docstore"
        raise CohortError(f"unknown criterion: {type(criterion).__name__}")

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, definition: CohortDefinition) -> CohortResult:
        """Members of ``definition``: cardinality-ordered intersection
        of inclusion candidates, minus exclusion candidates, with
        short-circuiting on an empty running set."""
        started = time.perf_counter()
        population = self.population()
        reports: list[CriterionReport] = []

        inclusion = [
            (
                position,
                criterion,
                CriterionReport(
                    criterion.to_json(),
                    "inclusion",
                    estimated=self.estimate(criterion),
                ),
            )
            for position, criterion in enumerate(definition.inclusion)
        ]
        # Ascending estimate; definition position breaks ties so the
        # plan (and therefore the /stats timings) is deterministic.
        inclusion.sort(key=lambda item: (item[2].estimated, item[0]))

        members: set[str] | None = None
        for _position, criterion, report in inclusion:
            if members is not None and not members:
                report.skipped = True
                self.counters["criteria_short_circuited"] += 1
                continue
            step = time.perf_counter()
            candidates, backend = self.candidates(criterion)
            report.seconds = time.perf_counter() - step
            report.backend = backend
            report.candidates = len(candidates)
            self.counters["criteria_evaluated"] += 1
            self.counters[f"backend_{backend}"] += 1
            members = (
                set(candidates)
                if members is None
                else members & candidates
            )
        if members is None:
            members = set(population)

        for criterion in definition.exclusion:
            report = CriterionReport(
                criterion.to_json(),
                "exclusion",
                estimated=self.estimate(criterion),
            )
            if not members:
                report.skipped = True
                self.counters["criteria_short_circuited"] += 1
            else:
                step = time.perf_counter()
                candidates, backend = self.candidates(criterion)
                report.seconds = time.perf_counter() - step
                report.backend = backend
                report.candidates = len(candidates)
                self.counters["criteria_evaluated"] += 1
                self.counters[f"backend_{backend}"] += 1
                members -= candidates
            reports.append(report)
        # Inclusion reports surface in evaluation order (the order the
        # short-circuit actually used), exclusions after.
        reports = [report for _p, _c, report in inclusion] + reports

        result = CohortResult(
            name=definition.name,
            members=sorted(members & population),
            reports=reports,
            seconds=time.perf_counter() - started,
            population=len(population),
        )
        self.counters["cohorts_evaluated"] += 1
        self._last[definition.name] = result.as_dict()
        return result

    def stats(self) -> dict:
        """The ``/stats`` cohort section: counters plus, per cohort,
        the last evaluation's per-criterion timings and candidate-set
        sizes."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "last_evaluations": dict(sorted(self._last.items())),
        }


def _value_query(criterion: ValueCriterion) -> dict:
    """The docstore query for one value criterion."""
    value = criterion.value
    if isinstance(value, tuple):
        value = list(value)
    if criterion.op == "eq":
        return {criterion.field: value}
    if criterion.op == "ne":
        return {criterion.field: {"$ne": value}}
    if criterion.op == "gte":
        return {criterion.field: {"$gte": value}}
    if criterion.op == "lte":
        return {criterion.field: {"$lte": value}}
    if criterion.op == "between":
        low, high = value
        return {criterion.field: {"$gte": low, "$lte": high}}
    if criterion.op == "in":
        return {criterion.field: {"$in": list(value)}}
    raise CohortError(f"unknown value op {criterion.op!r}")
