"""The property graph store.

Nodes and edges carry free-form string-keyed properties.  Per the
paper's data model, case-report nodes use ``label`` (a natural-language
description) and ``entityType`` (the schema type); edges use a relation
label plus optional properties.  Adjacency is indexed both ways and
nodes are secondarily indexed by property values for fast lookups.

The graph also maintains exact cardinality statistics — per-edge-label
counts and, through the property indexes, per-(property, value) node
counts — plus adjacency lists keyed by ``(node, edge label)``.  Both
are updated incrementally on every mutation and rebuilt on snapshot
restore, which is what lets :mod:`repro.graphdb.planner` cost join
orders without ever scanning the graph.
"""

from __future__ import annotations

from collections import defaultdict
from copy import deepcopy
from dataclasses import dataclass, field
from typing import Any, Iterator

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
        # Planner observability (not journaled: derived, not state).
        self.planner_counters: dict[str, int] = {}
        # Mutation counter: every node/edge (un)indexing and every
        # restore advances it, so a cached read stamped with an older
        # value can be recognised as stale (see repro.ir.cache).
        self.epoch = 0
        self._next_edge_id = 0
        # Durability journal (repro.durability.Durable protocol): when a
        # manager attaches this graph, each mutation appends one
        # replayable op dict here.
        self.journal: list | None = None

    def _log_op(self, op: dict) -> None:
        if self.journal is not None:
            self.journal.append(op)

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
        self._log_op(
            {"op": "add_node", "id": node_id, "props": deepcopy(properties)}
        )
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
        self._log_op({"op": "remove_node", "id": node_id})

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
        self._log_op(
            {
                "op": "add_edge",
                "src": source,
                "dst": target,
                "label": label,
                "props": deepcopy(properties),
            }
        )
        return edge

    def remove_edge(self, edge_id: int) -> None:
        """Delete an edge by id (no-op when absent)."""
        edge = self._edges.pop(edge_id, None)
        if edge is None:
            return
        self._outgoing[edge.source].remove(edge_id)
        self._incoming[edge.target].remove(edge_id)
        self._unindex_edge(edge)
        self._log_op({"op": "remove_edge", "id": edge_id})

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
        self._log_op({"op": "create_property_index", "key": key})

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

        Exact at all times: maintained incrementally on add/delete and
        rebuilt from scratch on snapshot restore, so it equals what a
        cold rebuild of the same graph would report.
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

    # -- durability (repro.durability.Durable protocol) -------------------------

    def durable_apply(self, op: dict) -> None:
        """Replay one journaled op (journal suspended by the manager).

        Edge ids are assigned sequentially, so replaying the full op
        stream from the same starting state reproduces them exactly —
        which is what lets ``remove_edge`` ops replay by id.
        """
        kind = op["op"]
        if kind == "add_node":
            self.add_node(op["id"], **op["props"])
        elif kind == "add_edge":
            self.add_edge(op["src"], op["dst"], op["label"], **op["props"])
        elif kind == "remove_node":
            self.remove_node(op["id"])
        elif kind == "remove_edge":
            self.remove_edge(op["id"])
        elif kind == "create_property_index":
            self.create_property_index(op["key"])
        else:
            raise GraphError(f"unknown journal op: {kind!r}")

    def durable_snapshot(self) -> dict:
        """JSON-shaped full state, including edge-id assignment."""
        return {
            "nodes": [
                [node.node_id, deepcopy(node.properties)]
                for node in self._nodes.values()
            ],
            "edges": [
                [
                    edge.edge_id,
                    edge.source,
                    edge.target,
                    edge.label,
                    deepcopy(edge.properties),
                ]
                for edge in self._edges.values()
            ],
            "next_edge_id": self._next_edge_id,
            "indexed_properties": sorted(self._indexed_properties),
        }

    def durable_restore(self, state: dict) -> None:
        """Replace this (empty) graph's contents with a snapshot state.

        Edge ids are restored verbatim so post-restore ``remove_edge``
        replays keep working.
        """
        self._nodes.clear()
        self._edges.clear()
        self._outgoing.clear()
        self._incoming.clear()
        self._property_index.clear()
        self._indexed_properties.clear()
        self._edge_label_counts.clear()
        self._out_by_label.clear()
        self._in_by_label.clear()
        for key in state.get("indexed_properties", ()):
            self._indexed_properties.add(key)
        for node_id, props in state.get("nodes", ()):
            node = Node(node_id, deepcopy(props))
            self._nodes[node_id] = node
            self._index_node(node)
        for edge_id, source, target, label, props in state.get("edges", ()):
            edge = Edge(int(edge_id), source, target, label, deepcopy(props))
            self._edges[edge.edge_id] = edge
            self._outgoing[source].append(edge.edge_id)
            self._incoming[target].append(edge.edge_id)
            self._index_edge(edge)
        self._next_edge_id = int(state.get("next_edge_id", 0))
        self.epoch += 1

    # -- internals --------------------------------------------------------------

    def _index_node(self, node: Node) -> None:
        self.epoch += 1
        for key in self._indexed_properties:
            value = node.properties.get(key)
            if _hashable(value):
                self._property_index[key][value].add(node.node_id)

    def _unindex_node(self, node: Node) -> None:
        self.epoch += 1
        for key in self._indexed_properties:
            value = node.properties.get(key)
            if _hashable(value):
                bucket = self._property_index[key]
                ids = bucket.get(value)
                if ids is not None:
                    ids.discard(node.node_id)
                    if not ids:
                        del bucket[value]

    def _index_edge(self, edge: Edge) -> None:
        self.epoch += 1
        self._edge_label_counts[edge.label] = (
            self._edge_label_counts.get(edge.label, 0) + 1
        )
        self._out_by_label[(edge.source, edge.label)].append(edge.edge_id)
        self._in_by_label[(edge.target, edge.label)].append(edge.edge_id)

    def _unindex_edge(self, edge: Edge) -> None:
        self.epoch += 1
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
