"""Property graph substrate: the Neo4j analog.

CREATe indexes each case report as a graph — nodes carry ``nodeId``,
``label`` (natural-language description) and ``entityType``; edges carry
``source``, ``target`` and a relation ``label`` — and queries it via
cypher (paper section III-D).  This package implements the graph store,
subgraph pattern matching, and a mini-Cypher query language.
"""

from repro.graphdb.graph import PropertyGraph, Node, Edge
from repro.graphdb.match import (
    NodePattern,
    EdgePattern,
    GraphPattern,
    match_pattern,
)
from repro.graphdb.planner import (
    PlanStep,
    QueryPlan,
    explain_pattern,
    plan_pattern,
)
from repro.graphdb.cypher import CypherEngine

__all__ = [
    "PropertyGraph",
    "Node",
    "Edge",
    "NodePattern",
    "EdgePattern",
    "GraphPattern",
    "match_pattern",
    "PlanStep",
    "QueryPlan",
    "plan_pattern",
    "explain_pattern",
    "CypherEngine",
]
