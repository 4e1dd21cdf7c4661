"""Graph pattern matching: cost-based planner vs. the naive matcher.

Builds a deterministic dense multi-edge case graph — a few hundred
nodes with a skewed type distribution (rare ``Medication`` anchors,
abundant ``Sign_symptom`` satellites) and thousands of ``CAUSES``/
``BEFORE``/``OVERLAP`` edges including parallels and self-loops — and
runs a three-variable chain pattern written the way a user naturally
writes it: symptoms first, the selective medication last.

The naive matcher binds variables in declaration order over full
candidate pools; the planner starts from the medication scan (exact
property-index cardinality) and expands along label-indexed adjacency.
Binding sets are asserted **bit-identical** before anything is timed —
the speedup must not come from answering a different question.

Acceptance (ISSUE 7): planner ``match_pattern`` ≥ 5x the preserved
pre-planner engine on this graph, both timed in this process.
"""

from __future__ import annotations

import time
from random import Random

from conftest import write_result

from repro.graphdb import (
    EdgePattern,
    GraphPattern,
    NodePattern,
    PropertyGraph,
    explain_pattern,
    match_pattern,
    plan_pattern,
)
from repro.testing.oracles import match_pattern_unplanned

N_NODES = 320
EDGES_PER_NODE = 8
N_MEDICATIONS = 4
TIMED_ROUNDS = 5


def _build_graph() -> PropertyGraph:
    graph = PropertyGraph()
    rng = Random(13)
    for i in range(N_NODES):
        entity_type = (
            "Medication" if i < N_MEDICATIONS else "Sign_symptom"
        )
        graph.add_node(f"n{i}", entityType=entity_type, ordinal=i)
    graph.create_property_index("entityType")
    for i in range(N_NODES):
        for _ in range(EDGES_PER_NODE):
            roll = rng.random()
            if roll < 0.05:
                dst = f"n{i}"  # self-loop
            else:
                dst = f"n{rng.randrange(N_NODES)}"
            label = rng.choice(["BEFORE", "BEFORE", "OVERLAP"])
            graph.add_edge(f"n{i}", dst, label)
    # Sparse, selective relation: each medication causes a handful of
    # symptoms (the planner's entry point).
    for m in range(N_MEDICATIONS):
        for _ in range(5):
            graph.add_edge(
                f"n{m}", f"n{rng.randrange(N_MEDICATIONS, N_NODES)}", "CAUSES"
            )
    return graph


def _pattern() -> GraphPattern:
    # Declaration order is deliberately planner-hostile: the two large
    # symptom pools come first, the selective medication anchor last.
    return GraphPattern(
        nodes=[
            NodePattern("s1", (("entityType", "Sign_symptom"),)),
            NodePattern("s2", (("entityType", "Sign_symptom"),)),
            NodePattern("m", (("entityType", "Medication"),)),
        ],
        edges=[
            EdgePattern("s1", "s2", "BEFORE"),
            EdgePattern("m", "s2", "CAUSES"),
        ],
    )


def _binding_ids(bindings) -> list:
    return sorted(
        sorted((var, node.node_id) for var, node in binding.items())
        for binding in bindings
    )


def test_graph_match_planner_speedup():
    graph = _build_graph()
    pattern = _pattern()

    # Bit-identical binding sets before any timing.
    planned = _binding_ids(match_pattern(graph, pattern))
    unplanned = _binding_ids(match_pattern_unplanned(graph, pattern))
    assert planned == unplanned, (
        "planner changed the binding set: "
        f"{len(planned)} vs {len(unplanned)} bindings"
    )
    assert planned, "benchmark pattern matched nothing; graph too sparse"

    start = time.perf_counter()
    for _ in range(TIMED_ROUNDS):
        match_pattern_unplanned(graph, pattern)
    unplanned_s = (time.perf_counter() - start) / TIMED_ROUNDS

    start = time.perf_counter()
    for _ in range(TIMED_ROUNDS):
        match_pattern(graph, pattern)
    planned_s = (time.perf_counter() - start) / TIMED_ROUNDS

    speedup = unplanned_s / planned_s
    plan = plan_pattern(graph, pattern)
    _bindings, rows = explain_pattern(graph, pattern)

    lines = [
        f"Graph pattern matching ({N_NODES} nodes, {graph.n_edges} "
        f"edges, {len(planned)} bindings)",
        f"plan: {' -> '.join(plan.var_order())} "
        f"(estimated {plan.estimated_total:.1f} rows)",
        *(
            f"  step {row['step']}: {row['op']:<7}{row['var']:<4}"
            f"est {row['estimated']:>10.1f}  actual {row['actual']:>7}"
            f"  {row.get('detail', '')}"
            for row in rows
        ),
        f"{'engine':<28}{'s/match':>12}{'speedup':>10}",
        f"{'naive (pre-planner)':<28}{unplanned_s:>12.4f}{1.0:>9.2f}x",
        f"{'cost-based planner':<28}{planned_s:>12.4f}{speedup:>9.2f}x",
    ]
    write_result("bench_graph_match", lines)

    assert speedup >= 5.0, (
        f"planner only {speedup:.2f}x the naive matcher "
        f"({planned_s:.4f}s vs {unplanned_s:.4f}s per match)"
    )
