"""Cohort definitions: composable inclusion/exclusion criteria.

A cohort is the production-shaped retrieval unit of the CREATE
cohort-retrieval workload: "patients with diagnosis X, on medication Y,
event A before event B, published after year Z".  Each criterion is a
*per-report predicate* — a report (one patient case) is a member when
every inclusion criterion holds for it and no exclusion criterion does
— which is what makes brute-force per-document evaluation a complete
oracle for the composed engine and makes membership invariant under
criterion permutation and unrelated add/delete.

Criterion kinds and the store each compiles to:

* ``entity``   — an extracted mention of a given entity type (optionally
  a specific surface value, optionally negated) — property-graph
  ``entityType`` index.
* ``temporal`` — BEFORE / AFTER / OVERLAP between two mention specs in
  the transitively-closed temporal graph — planner-driven
  ``match_pattern``.
* ``graph``    — a raw subgraph pattern (power-user escape hatch) —
  planner-driven ``match_pattern``.
* ``text``     — keyword match over report text — the CREATe-IR keyword
  engine.
* ``value``    — metadata comparisons (year, category, journal, MeSH)
  — a predicate scan over the docstore's report records.

Definitions round-trip through plain JSON (:func:`CohortDefinition.
from_json` / :meth:`CohortDefinition.to_json`) so they can be POSTed to
``/cohorts``, persisted in the docstore, and replayed by the fuzzer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import CohortError

TEMPORAL_CRITERION_RELATIONS = ("BEFORE", "AFTER", "OVERLAP")

VALUE_OPS = ("eq", "ne", "gte", "lte", "between", "in")


@dataclass(frozen=True, slots=True)
class MentionSpec:
    """Constraints on one extracted mention (a graph node).

    Attributes:
        entity_type: schema label the span must carry (None = any).
        value: required surface text, compared case-insensitively
            (None = any surface).
        negated: require the mention to be negated (True), positive
            (False, the default — a denied symptom is not a finding),
            or either (None).
    """

    entity_type: str | None = None
    value: str | None = None
    negated: bool | None = False

    def matches(self, label: str, surface: str, is_negated: bool) -> bool:
        """Does a span with these attributes satisfy the spec?"""
        if self.entity_type is not None and label != self.entity_type:
            return False
        if (
            self.value is not None
            and surface.lower() != self.value.lower()
        ):
            return False
        if self.negated is not None and is_negated != self.negated:
            return False
        return True

    def to_json(self) -> dict:
        return {
            "entity_type": self.entity_type,
            "value": self.value,
            "negated": self.negated,
        }

    @classmethod
    def from_json(cls, body: dict) -> "MentionSpec":
        if not isinstance(body, dict):
            raise CohortError(f"mention spec must be a dict: {body!r}")
        unknown = set(body) - {"entity_type", "value", "negated"}
        if unknown:
            raise CohortError(f"unknown mention spec keys: {sorted(unknown)}")
        negated = body.get("negated", False)
        if negated not in (True, False, None):
            raise CohortError(f"negated must be true/false/null: {negated!r}")
        for key in ("entity_type", "value"):
            if not isinstance(body.get(key), (str, type(None))):
                raise CohortError(
                    f"{key} must be a string or null: {body[key]!r}"
                )
        return cls(
            entity_type=body.get("entity_type"),
            value=body.get("value"),
            negated=negated,
        )


@dataclass(frozen=True, slots=True)
class EntityCriterion:
    """The report mentions an entity satisfying ``spec``."""

    spec: MentionSpec

    kind = "entity"

    def to_json(self) -> dict:
        return {"kind": self.kind, **self.spec.to_json()}


@dataclass(frozen=True, slots=True)
class TemporalCriterion:
    """``relation(a, b)`` holds between two distinct mentions in the
    report's transitively-closed temporal graph."""

    relation: str
    a: MentionSpec
    b: MentionSpec

    kind = "temporal"

    def __post_init__(self) -> None:
        if self.relation not in TEMPORAL_CRITERION_RELATIONS:
            raise CohortError(
                f"unknown temporal relation {self.relation!r} "
                f"(expected one of {TEMPORAL_CRITERION_RELATIONS})"
            )

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "relation": self.relation,
            "a": self.a.to_json(),
            "b": self.b.to_json(),
        }


@dataclass(frozen=True, slots=True)
class GraphCriterion:
    """A raw subgraph pattern holds within the report's graph.

    ``nodes`` is ``((var, ((prop, value), ...)), ...)`` and ``edges``
    is ``((src_var, dst_var, label_or_None, directed), ...)`` — the
    same shape :class:`repro.graphdb.GraphPattern` takes.  All bound
    nodes must belong to one report.
    """

    nodes: tuple[tuple[str, tuple[tuple[str, str], ...]], ...]
    edges: tuple[tuple[str, str, str | None, bool], ...] = ()

    kind = "graph"

    def __post_init__(self) -> None:
        if not self.nodes:
            raise CohortError("graph criterion needs at least one node")
        declared = {var for var, _props in self.nodes}
        if len(declared) != len(self.nodes):
            raise CohortError("graph criterion variables must be unique")
        for src, dst, _label, _directed in self.edges:
            if src not in declared or dst not in declared:
                raise CohortError(
                    f"graph criterion edge ({src!r}, {dst!r}) references "
                    "an undeclared variable"
                )

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "nodes": [
                [var, {key: value for key, value in props}]
                for var, props in self.nodes
            ],
            "edges": [list(edge) for edge in self.edges],
        }


@dataclass(frozen=True, slots=True)
class TextCriterion:
    """The report's body matches a keyword query (any analyzed term)."""

    query: str

    kind = "text"

    def __post_init__(self) -> None:
        if not self.query or not self.query.strip():
            raise CohortError("text criterion needs a non-empty query")

    def to_json(self) -> dict:
        return {"kind": self.kind, "query": self.query}


@dataclass(frozen=True, slots=True)
class ValueCriterion:
    """A metadata field comparison evaluated over the docstore's
    report records.

    ``op`` is one of ``eq``/``ne``/``gte``/``lte``/``between``/``in``;
    ``between`` takes a two-element ``[low, high]`` (inclusive) and
    ``in`` a list of admissible values.  The bounds of ``gte``, ``lte``
    and ``between`` are strings, numbers or booleans.

    A dotted ``field`` steps through objects only, so a path through an
    array (``sections.name``) finds nothing.  The value found matches
    when it, or one element of it when it is an array (e.g.
    ``mesh_terms``), passes the whole comparison: ``between`` needs one
    element inside ``[low, high]``.  Ordered comparisons never cross
    types (a string is never ``gte`` a number, a bool is not a number).
    ``ne`` means "no element equals", so it holds where the field is
    absent; every other op needs the field.
    """

    field: str
    op: str
    value: object

    kind = "value"

    def __post_init__(self) -> None:
        if not self.field:
            raise CohortError("value criterion needs a field")
        if self.op not in VALUE_OPS:
            raise CohortError(
                f"unknown value op {self.op!r} (expected one of {VALUE_OPS})"
            )
        if self.op == "between" and (
            not isinstance(self.value, (list, tuple)) or len(self.value) != 2
        ):
            raise CohortError("between takes a [low, high] pair")
        if self.op in ("gte", "lte", "between"):
            bounds = self.value if self.op == "between" else [self.value]
            if not all(isinstance(b, (str, int, float)) for b in bounds):
                raise CohortError(
                    f"{self.op} bounds must be strings, numbers or booleans"
                )
        if self.op == "in" and not isinstance(self.value, (list, tuple)):
            raise CohortError("in takes a list of values")

    def to_json(self) -> dict:
        value = self.value
        if isinstance(value, tuple):
            value = list(value)
        return {
            "kind": self.kind,
            "field": self.field,
            "op": self.op,
            "value": value,
        }


Criterion = (
    EntityCriterion
    | TemporalCriterion
    | GraphCriterion
    | TextCriterion
    | ValueCriterion
)


def criterion_from_json(body: dict) -> Criterion:
    """Parse one criterion dict; raises :class:`CohortError` on shape
    violations (unknown kind, missing keys, bad ops)."""
    if not isinstance(body, dict):
        raise CohortError(f"criterion must be a dict: {body!r}")
    kind = body.get("kind")
    if kind == "entity":
        spec = {k: v for k, v in body.items() if k != "kind"}
        return EntityCriterion(MentionSpec.from_json(spec))
    if kind == "temporal":
        missing = {"relation", "a", "b"} - set(body)
        if missing:
            raise CohortError(
                f"temporal criterion missing {sorted(missing)}"
            )
        return TemporalCriterion(
            relation=body["relation"],
            a=MentionSpec.from_json(body["a"]),
            b=MentionSpec.from_json(body["b"]),
        )
    if kind == "graph":
        nodes = body.get("nodes")
        if not isinstance(nodes, list):
            raise CohortError("graph criterion needs a node list")
        parsed_nodes = []
        for item in nodes:
            if not isinstance(item, (list, tuple)) or len(item) != 2:
                raise CohortError(f"bad graph node: {item!r}")
            var, props = item
            if not isinstance(props, dict):
                raise CohortError(f"bad graph node properties: {props!r}")
            parsed_nodes.append(
                (str(var), tuple(sorted(props.items())))
            )
        parsed_edges = []
        for item in body.get("edges", []):
            if not isinstance(item, (list, tuple)) or len(item) != 4:
                raise CohortError(f"bad graph edge: {item!r}")
            src, dst, label, directed = item
            if not isinstance(label, (str, type(None))):
                raise CohortError(
                    f"graph edge label must be a string or null: {label!r}"
                )
            parsed_edges.append(
                (str(src), str(dst), label, bool(directed))
            )
        return GraphCriterion(tuple(parsed_nodes), tuple(parsed_edges))
    if kind == "text":
        return TextCriterion(query=str(body.get("query", "")))
    if kind == "value":
        missing = {"field", "op", "value"} - set(body)
        if missing:
            raise CohortError(f"value criterion missing {sorted(missing)}")
        return ValueCriterion(
            field=str(body["field"]), op=body["op"], value=body["value"]
        )
    raise CohortError(f"unknown criterion kind: {kind!r}")


@dataclass
class CohortDefinition:
    """A named cohort: inclusion criteria ANDed, exclusions subtracted.

    With no inclusion criteria the base population is every report (so
    an exclusion-only cohort reads "all patients except ...").
    """

    name: str
    inclusion: list = field(default_factory=list)
    exclusion: list = field(default_factory=list)
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise CohortError("cohort needs a name")

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "inclusion": [c.to_json() for c in self.inclusion],
            "exclusion": [c.to_json() for c in self.exclusion],
        }

    @classmethod
    def from_json(cls, body: dict) -> "CohortDefinition":
        if not isinstance(body, dict):
            raise CohortError("cohort definition must be a JSON object")
        name = body.get("name")
        if not isinstance(name, str) or not name:
            raise CohortError("cohort definition needs a string name")
        unknown = set(body) - {"name", "description", "inclusion", "exclusion"}
        if unknown:
            raise CohortError(
                f"unknown cohort definition keys: {sorted(unknown)}"
            )
        inclusion = body.get("inclusion", [])
        exclusion = body.get("exclusion", [])
        if not isinstance(inclusion, list) or not isinstance(exclusion, list):
            raise CohortError("inclusion/exclusion must be lists")
        return cls(
            name=name,
            description=str(body.get("description", "")),
            inclusion=[criterion_from_json(c) for c in inclusion],
            exclusion=[criterion_from_json(c) for c in exclusion],
        )
