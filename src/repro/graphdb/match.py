"""Subgraph pattern matching over a :class:`PropertyGraph`.

A :class:`GraphPattern` is a small query graph of variable-named node
patterns connected by edge patterns; :func:`match_pattern` enumerates
all bindings of pattern variables to graph nodes, executing the
join order chosen by the cost-based planner
(:mod:`repro.graphdb.planner`): scan the most selective variable,
expand the rest along ``(node, edge label)`` adjacency.

This is the engine behind both mini-Cypher ``MATCH`` and CREATe-IR's
entity & relation search: a parsed user query becomes a pattern whose
nodes constrain ``entityType`` and (fuzzily) ``label``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.graphdb.graph import Edge, Node, PropertyGraph


@dataclass(frozen=True, slots=True)
class NodePattern:
    """Constraints one pattern variable places on a graph node.

    Attributes:
        var: variable name (binding key in results).
        properties: exact property equalities.
        predicate: arbitrary extra constraint (e.g. fuzzy label match).
    """

    var: str
    properties: tuple[tuple[str, Any], ...] = ()
    predicate: Callable[[Node], bool] | None = None

    def admits(self, node: Node) -> bool:
        """Does ``node`` satisfy this pattern?"""
        for key, value in self.properties:
            if node.properties.get(key) != value:
                return False
        if self.predicate is not None and not self.predicate(node):
            return False
        return True


@dataclass(frozen=True, slots=True)
class EdgePattern:
    """A required edge between two bound variables.

    Attributes:
        source / target: variable names.
        label: required edge label (None = any).
        directed: when False, either orientation satisfies the pattern.
    """

    source: str
    target: str
    label: str | None = None
    directed: bool = True

    def admits(self, edge: Edge) -> bool:
        return self.label is None or edge.label == self.label


@dataclass
class GraphPattern:
    """A conjunction of node and edge patterns."""

    nodes: list[NodePattern] = field(default_factory=list)
    edges: list[EdgePattern] = field(default_factory=list)

    def node_vars(self) -> list[str]:
        return [pattern.var for pattern in self.nodes]

    def validate(self) -> None:
        """Check edge endpoints reference declared variables."""
        declared = set(self.node_vars())
        for edge in self.edges:
            for var in (edge.source, edge.target):
                if var not in declared:
                    raise ValueError(
                        f"edge references undeclared variable {var!r}"
                    )


def match_pattern(
    graph: PropertyGraph,
    pattern: GraphPattern,
    limit: int | None = None,
) -> list[dict[str, Node]]:
    """All bindings of pattern variables to distinct graph nodes.

    Executes the cost-based plan (most selective variable first,
    cheapest-edge expansion); the binding *set* is identical to the
    exhaustive enumerator's and the order is deterministic.

    Args:
        graph: the data graph.
        pattern: the query pattern (validated internally).
        limit: stop after this many bindings (None = exhaustive).

    Returns:
        A list of ``{var: Node}`` dicts; deterministic order.
    """
    from repro.graphdb.planner import execute_plan, plan_pattern

    pattern.validate()
    if not pattern.nodes:
        return []
    plan = plan_pattern(graph, pattern)
    return execute_plan(graph, pattern, plan, limit=limit)


def iter_edge_bindings(
    graph: PropertyGraph,
    binding: dict[str, Node],
    pattern: GraphPattern,
) -> Iterator[tuple[EdgePattern, Edge]]:
    """For a node binding, yield one concrete edge per edge pattern.

    Useful to report *which* edges realized a match (for result
    explanations and visualization highlighting).
    """
    for edge_pattern in pattern.edges:
        src = binding[edge_pattern.source]
        dst = binding[edge_pattern.target]
        found = None
        for e in graph.out_edges(src.node_id):
            if e.target == dst.node_id and edge_pattern.admits(e):
                found = e
                break
        if found is None and not edge_pattern.directed:
            for e in graph.out_edges(dst.node_id):
                if e.target == src.node_id and edge_pattern.admits(e):
                    found = e
                    break
        if found is not None:
            yield (edge_pattern, found)
