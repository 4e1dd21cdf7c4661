"""The property graph store.

Nodes and edges carry free-form string-keyed properties.  Per the
paper's data model, case-report nodes use ``label`` (a natural-language
description) and ``entityType`` (the schema type); edges use a relation
label plus optional properties.  Adjacency is indexed both ways and
nodes are secondarily indexed by property values for fast lookups.

The graph also maintains exact cardinality statistics — per-edge-label
counts and, through the property indexes, per-(property, value) node
counts — plus adjacency lists keyed by ``(node, edge label)``.  Both
are updated incrementally on every mutation, which is what lets
:mod:`repro.graphdb.planner` cost join orders without ever scanning the
graph.

Beside them, nodes sit in buckets keyed by ``(entityType, label)``
(:meth:`PropertyGraph.type_labels`), kept exact the same way: graph
search decides a query concept once per distinct label of its type
instead of once per node.  The buckets are not a property index, so
the planner's statistics never see them.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import AbstractSet, Any, Iterator, Mapping

from repro.exceptions import GraphError


@dataclass(slots=True)
class Node:
    """A graph node: unique id plus properties."""

    node_id: str
    properties: dict[str, Any] = field(default_factory=dict)

    def get(self, key: str, default: Any = None) -> Any:
        return self.properties.get(key, default)


@dataclass(slots=True)
class Edge:
    """A directed, labeled edge between two node ids."""

    edge_id: int
    source: str
    target: str
    label: str
    properties: dict[str, Any] = field(default_factory=dict)

    def get(self, key: str, default: Any = None) -> Any:
        return self.properties.get(key, default)


class PropertyGraph:
    """Directed multigraph with property-indexed nodes.

    Example:
        >>> g = PropertyGraph()
        >>> _ = g.add_node("n1", label="fever", entityType="Sign_symptom")
        >>> _ = g.add_node("n2", label="cough", entityType="Sign_symptom")
        >>> _ = g.add_edge("n1", "n2", "OVERLAP")
        >>> [e.label for e in g.out_edges("n1")]
        ['OVERLAP']
    """

    def __init__(self):
        self._nodes: dict[str, Node] = {}
        self._edges: dict[int, Edge] = {}
        self._outgoing: dict[str, list[int]] = defaultdict(list)
        self._incoming: dict[str, list[int]] = defaultdict(list)
        self._property_index: dict[str, dict[Any, set[str]]] = defaultdict(
            lambda: defaultdict(set)
        )
        self._indexed_properties: set[str] = set()
        # entityType -> str(label) -> node ids, for every node whose
        # entityType is hashable (see type_labels).
        self._type_labels: dict[Any, dict[str, set[str]]] = {}
        # Cardinality statistics + (node, label) adjacency, maintained
        # incrementally (see module docstring).  The planner reads
        # these; they never require a scan.
        self._edge_label_counts: dict[str, int] = {}
        self._out_by_label: dict[tuple[str, str], list[int]] = defaultdict(
            list
        )
        self._in_by_label: dict[tuple[str, str], list[int]] = defaultdict(
            list
        )
        self.planner_counters: dict[str, int] = {}
        self._next_edge_id = 0

    # -- nodes ---------------------------------------------------------------

    def add_node(self, node_id: str, **properties: Any) -> Node:
        """Create a node (merging properties when it already exists)."""
        node = self._nodes.get(node_id)
        if node is None:
            node = Node(node_id, dict(properties))
            self._nodes[node_id] = node
            self._index_node(node)
        else:
            self._unindex_node(node)
            node.properties.update(properties)
            self._index_node(node)
        return node

    def node(self, node_id: str) -> Node:
        """Fetch a node by id.

        Raises:
            GraphError: unknown id.
        """
        node = self._nodes.get(node_id)
        if node is None:
            raise GraphError(f"unknown node: {node_id!r}")
        return node

    def has_node(self, node_id: str) -> bool:
        return node_id in self._nodes

    def remove_node(self, node_id: str) -> None:
        """Delete a node and all incident edges."""
        node = self._nodes.pop(node_id, None)
        if node is None:
            return
        self._unindex_node(node)
        incident = set(self._outgoing.pop(node_id, [])) | set(
            self._incoming.pop(node_id, [])
        )
        for edge_id in incident:
            edge = self._edges.pop(edge_id, None)
            if edge is None:
                continue
            if edge.source != node_id:
                self._outgoing[edge.source].remove(edge_id)
            if edge.target != node_id:
                self._incoming[edge.target].remove(edge_id)
            self._unindex_edge(edge)

    def nodes(self) -> Iterator[Node]:
        """All nodes (insertion order)."""
        return iter(list(self._nodes.values()))

    @property
    def n_nodes(self) -> int:
        return len(self._nodes)

    # -- edges ------------------------------------------------------------------

    def add_edge(
        self, source: str, target: str, label: str, **properties: Any
    ) -> Edge:
        """Create a directed edge; endpoints must exist.

        Raises:
            GraphError: missing endpoint.
        """
        for endpoint in (source, target):
            if endpoint not in self._nodes:
                raise GraphError(f"unknown node: {endpoint!r}")
        edge = Edge(self._next_edge_id, source, target, label, dict(properties))
        self._edges[edge.edge_id] = edge
        self._outgoing[source].append(edge.edge_id)
        self._incoming[target].append(edge.edge_id)
        self._index_edge(edge)
        self._next_edge_id += 1
        return edge

    def remove_edge(self, edge_id: int) -> None:
        """Delete an edge by id (no-op when absent)."""
        edge = self._edges.pop(edge_id, None)
        if edge is None:
            return
        self._outgoing[edge.source].remove(edge_id)
        self._incoming[edge.target].remove(edge_id)
        self._unindex_edge(edge)

    def edges(self) -> Iterator[Edge]:
        """All edges."""
        return iter(list(self._edges.values()))

    @property
    def n_edges(self) -> int:
        return len(self._edges)

    def out_edges(self, node_id: str, label: str | None = None) -> list[Edge]:
        """Outgoing edges of a node, optionally filtered by label.

        Label-filtered lookups hit the ``(node, label)`` adjacency
        index directly instead of scanning the node's full edge list.
        """
        if label is not None:
            ids = self._out_by_label.get((node_id, label), ())
        else:
            ids = self._outgoing.get(node_id, ())
        return [self._edges[eid] for eid in ids]

    def in_edges(self, node_id: str, label: str | None = None) -> list[Edge]:
        """Incoming edges of a node, optionally filtered by label."""
        if label is not None:
            ids = self._in_by_label.get((node_id, label), ())
        else:
            ids = self._incoming.get(node_id, ())
        return [self._edges[eid] for eid in ids]

    def out_degree(self, node_id: str, label: str | None = None) -> int:
        """Outgoing edge count, without materializing the edges."""
        if label is not None:
            return len(self._out_by_label.get((node_id, label), ()))
        return len(self._outgoing.get(node_id, ()))

    def in_degree(self, node_id: str, label: str | None = None) -> int:
        """Incoming edge count, without materializing the edges."""
        if label is not None:
            return len(self._in_by_label.get((node_id, label), ()))
        return len(self._incoming.get(node_id, ()))

    def neighbors(self, node_id: str) -> set[str]:
        """Ids of nodes adjacent in either direction."""
        out = {self._edges[eid].target for eid in self._outgoing.get(node_id, ())}
        inc = {self._edges[eid].source for eid in self._incoming.get(node_id, ())}
        return out | inc

    # -- property index -----------------------------------------------------------

    def create_property_index(self, key: str) -> None:
        """Index nodes by the value of property ``key``."""
        if key in self._indexed_properties:
            return
        self._indexed_properties.add(key)
        for node in self._nodes.values():
            value = node.properties.get(key)
            if _hashable(value):
                self._property_index[key][value].add(node.node_id)

    def type_labels(self, entity_type: Any) -> Mapping[str, AbstractSet[str]]:
        """The distinct labels of the nodes whose ``entityType`` is
        ``entity_type``, each with the ids of the nodes carrying it.

        A label is keyed as ``str(node.get("label", ""))``, so an
        unlabelled node sits under ``""``.  The view is read-only and
        exact at all times: every node (un)indexing maintains it.
        """
        if not _hashable(entity_type):
            return MappingProxyType({})
        return MappingProxyType(self._type_labels.get(entity_type, {}))

    def find_nodes(self, **criteria: Any) -> list[Node]:
        """Nodes whose properties equal every criterion.

        Uses property indexes when available, scanning otherwise.
        """
        candidate_ids: set[str] | None = None
        unindexed: dict[str, Any] = {}
        for key, value in criteria.items():
            if key in self._indexed_properties and _hashable(value):
                bucket = self._property_index[key].get(value, set())
                candidate_ids = (
                    set(bucket)
                    if candidate_ids is None
                    else candidate_ids & bucket
                )
            else:
                unindexed[key] = value
        if candidate_ids is None:
            pool: Iterator[Node] = iter(self._nodes.values())
        else:
            pool = (self._nodes[nid] for nid in candidate_ids)
        out = []
        for node in pool:
            if all(
                node.properties.get(key) == value
                for key, value in unindexed.items()
            ):
                out.append(node)
        out.sort(key=lambda n: n.node_id)
        return out

    # -- cardinality statistics (planner inputs) ---------------------------------

    def edge_label_counts(self) -> dict[str, int]:
        """Exact live-edge count per edge label."""
        return dict(self._edge_label_counts)

    def edge_label_count(self, label: str) -> int:
        """Exact live-edge count for one label (0 when absent)."""
        return self._edge_label_counts.get(label, 0)

    def property_value_count(self, key: str, value: Any) -> int | None:
        """Exact node count for ``key == value``, or None when ``key``
        is not indexed (the planner then falls back to ``n_nodes``)."""
        if key not in self._indexed_properties or not _hashable(value):
            return None
        return len(self._property_index.get(key, {}).get(value, ()))

    def statistics(self) -> dict:
        """Snapshot of every cardinality the planner consults.

        Exact at all times: maintained incrementally on add/delete, so
        it equals what a cold rebuild of the same graph would report.
        """
        return {
            "n_nodes": self.n_nodes,
            "n_edges": self.n_edges,
            "edge_labels": dict(sorted(self._edge_label_counts.items())),
            "indexed_properties": {
                key: {
                    "n_values": len(self._property_index.get(key, {})),
                    "n_indexed_nodes": sum(
                        len(bucket)
                        for bucket in self._property_index.get(
                            key, {}
                        ).values()
                    ),
                }
                for key in sorted(self._indexed_properties)
            },
        }

    def planner_stats(self) -> dict:
        """The ``/stats`` planner section: counters + statistics."""
        return {
            "counters": dict(sorted(self.planner_counters.items())),
            "statistics": self.statistics(),
        }

    # -- internals --------------------------------------------------------------

    def _index_node(self, node: Node) -> None:
        for key in self._indexed_properties:
            value = node.properties.get(key)
            if _hashable(value):
                self._property_index[key][value].add(node.node_id)
        entity_type = node.properties.get("entityType")
        if _hashable(entity_type):
            label = str(node.properties.get("label", ""))
            labels = self._type_labels.setdefault(entity_type, {})
            labels.setdefault(label, set()).add(node.node_id)

    def _unindex_node(self, node: Node) -> None:
        for key in self._indexed_properties:
            value = node.properties.get(key)
            if _hashable(value):
                bucket = self._property_index[key]
                ids = bucket.get(value)
                if ids is not None:
                    ids.discard(node.node_id)
                    if not ids:
                        del bucket[value]
        entity_type = node.properties.get("entityType")
        if _hashable(entity_type):
            labels = self._type_labels.get(entity_type)
            if labels is not None:
                label = str(node.properties.get("label", ""))
                ids = labels.get(label)
                if ids is not None:
                    ids.discard(node.node_id)
                    if not ids:
                        del labels[label]
                if not labels:
                    del self._type_labels[entity_type]

    def _index_edge(self, edge: Edge) -> None:
        self._edge_label_counts[edge.label] = (
            self._edge_label_counts.get(edge.label, 0) + 1
        )
        self._out_by_label[(edge.source, edge.label)].append(edge.edge_id)
        self._in_by_label[(edge.target, edge.label)].append(edge.edge_id)

    def _unindex_edge(self, edge: Edge) -> None:
        count = self._edge_label_counts.get(edge.label, 0) - 1
        if count > 0:
            self._edge_label_counts[edge.label] = count
        else:
            self._edge_label_counts.pop(edge.label, None)
        for index, key in (
            (self._out_by_label, (edge.source, edge.label)),
            (self._in_by_label, (edge.target, edge.label)),
        ):
            bucket = index.get(key)
            if bucket is not None:
                bucket.remove(edge.edge_id)
                if not bucket:
                    del index[key]


def _hashable(value: Any) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True
