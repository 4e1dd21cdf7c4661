"""Planner regression tests: edge cases, EXPLAIN, statistics freshness.

Guards the cost-based join-order planner against the failure modes a
differential fuzzer finds last: zero-cardinality inputs, disconnected
pattern components, repeated/parallel pattern edges, self-loops (the
PR 2 injectivity fix), and — most subtly — cardinality statistics
drifting out of sync with the graph across deletes and re-adds.
"""

from random import Random

from repro.graphdb import (
    CypherEngine,
    EdgePattern,
    GraphPattern,
    NodePattern,
    PropertyGraph,
    explain_pattern,
    match_pattern,
    plan_pattern,
)
from repro.testing.oracles import (
    brute_force_bindings,
    match_pattern_unplanned,
)


def _ids(bindings) -> set:
    return {
        frozenset((var, node.node_id) for var, node in binding.items())
        for binding in bindings
    }


def _oracle(graph, pattern) -> set:
    return {
        frozenset(binding.items())
        for binding in brute_force_bindings(graph, pattern)
    }


def _assert_agrees(graph, pattern) -> set:
    """Planned == unplanned == exhaustive; returns the binding set."""
    expected = _oracle(graph, pattern)
    assert _ids(match_pattern(graph, pattern)) == expected
    assert _ids(match_pattern_unplanned(graph, pattern)) == expected
    return expected


def _dense_graph() -> PropertyGraph:
    graph = PropertyGraph()
    for i in range(8):
        graph.add_node(
            f"n{i}",
            entityType="Sign_symptom" if i % 3 else "Medication",
        )
    graph.create_property_index("entityType")
    rng = Random(7)
    for _ in range(20):
        src = f"n{rng.randrange(8)}"
        dst = f"n{rng.randrange(8)}"
        graph.add_edge(src, dst, rng.choice(["BEFORE", "CAUSES"]))
    return graph


class TestPlannerEdgeCases:
    def test_zero_instance_edge_label(self):
        graph = _dense_graph()
        pattern = GraphPattern(
            nodes=[NodePattern("a"), NodePattern("b")],
            edges=[EdgePattern("a", "b", "NO_SUCH_LABEL")],
        )
        assert _assert_agrees(graph, pattern) == set()
        # The estimate is literally zero: the label histogram has no
        # entry, so fanout — and the expand estimate — collapse to 0.
        plan = plan_pattern(graph, pattern)
        expand = [s for s in plan.steps if s.op == "expand"]
        assert len(expand) == 1
        assert expand[0].estimated == 0.0

    def test_zero_instance_property_value(self):
        graph = _dense_graph()
        pattern = GraphPattern(
            nodes=[
                NodePattern("a", (("entityType", "Lab_value"),)),
                NodePattern("b"),
            ],
            edges=[EdgePattern("a", "b", "BEFORE")],
        )
        assert _assert_agrees(graph, pattern) == set()
        plan = plan_pattern(graph, pattern)
        # Zero-bucket scan is chosen first (most selective possible).
        assert plan.steps[0].op == "scan"
        assert plan.steps[0].var == "a"
        assert plan.steps[0].estimated == 0.0

    def test_disconnected_pattern_components(self):
        graph = _dense_graph()
        pattern = GraphPattern(
            nodes=[NodePattern("a"), NodePattern("b"), NodePattern("c")],
            edges=[EdgePattern("a", "b", "BEFORE")],
        )
        expected = _assert_agrees(graph, pattern)
        assert expected  # cartesian with the free variable is non-empty
        plan = plan_pattern(graph, pattern)
        # The isolated component starts its own scan: 2 scans, 1 expand.
        ops = sorted(step.op for step in plan.steps)
        assert ops == ["expand", "scan", "scan"]

    def test_repeated_edge_types_between_same_vars(self):
        graph = PropertyGraph()
        for i in range(4):
            graph.add_node(f"n{i}")
        graph.add_edge("n0", "n1", "R")
        graph.add_edge("n0", "n1", "R")  # parallel duplicate
        graph.add_edge("n0", "n1", "S")
        graph.add_edge("n2", "n3", "R")
        pattern = GraphPattern(
            nodes=[NodePattern("a"), NodePattern("b")],
            edges=[
                EdgePattern("a", "b", "R"),
                EdgePattern("a", "b", "R"),  # repeated pattern edge
                EdgePattern("a", "b", "S"),
            ],
        )
        expected = _assert_agrees(graph, pattern)
        assert expected == {frozenset({("a", "n0"), ("b", "n1")})}

    def test_self_loop_pattern_never_expands(self):
        graph = PropertyGraph()
        for i in range(3):
            graph.add_node(f"n{i}")
        graph.add_edge("n0", "n0", "LOOP")
        graph.add_edge("n1", "n2", "LOOP")
        pattern = GraphPattern(
            nodes=[NodePattern("a")],
            edges=[EdgePattern("a", "a", "LOOP")],
        )
        expected = _assert_agrees(graph, pattern)
        assert expected == {frozenset({("a", "n0")})}
        plan = plan_pattern(graph, pattern)
        assert [step.op for step in plan.steps] == ["scan"]

    def test_self_loop_combined_with_expansion(self):
        graph = PropertyGraph()
        for i in range(4):
            graph.add_node(f"n{i}")
        graph.add_edge("n0", "n0", "LOOP")
        graph.add_edge("n0", "n1", "R")
        graph.add_edge("n2", "n3", "R")  # n2 has no self-loop
        pattern = GraphPattern(
            nodes=[NodePattern("a"), NodePattern("b")],
            edges=[
                EdgePattern("a", "a", "LOOP"),
                EdgePattern("a", "b", "R"),
            ],
        )
        expected = _assert_agrees(graph, pattern)
        assert expected == {frozenset({("a", "n0"), ("b", "n1")})}

    def test_empty_graph_and_empty_pattern(self):
        graph = PropertyGraph()
        pattern = GraphPattern(
            nodes=[NodePattern("a")],
            edges=[],
        )
        assert match_pattern(graph, pattern) == []
        assert match_pattern(graph, GraphPattern()) == []

    def test_undirected_edge_agrees(self):
        graph = _dense_graph()
        pattern = GraphPattern(
            nodes=[NodePattern("a"), NodePattern("b"), NodePattern("c")],
            edges=[
                EdgePattern("a", "b", "BEFORE", directed=False),
                EdgePattern("b", "c", None, directed=False),
            ],
        )
        _assert_agrees(graph, pattern)


class TestExplain:
    def _engine(self) -> CypherEngine:
        engine = CypherEngine()
        engine.run(
            "CREATE (a:Event {label: 'fever'})-[:BEFORE]->"
            "(b:Event {label: 'cough'})"
        )
        engine.run(
            "CREATE (c:Event {label: 'rash'})-[:BEFORE]->"
            "(d:Event {label: 'fever'})"
        )
        return engine

    def test_cypher_explain_returns_plan_rows(self):
        engine = self._engine()
        rows = engine.run("EXPLAIN MATCH (a)-[:BEFORE]->(b) RETURN a")
        assert [row["op"] for row in rows[:-1]] != []
        assert rows[-1]["op"] == "result"
        assert rows[-1]["actual"] == 2
        for row in rows:
            assert set(row) >= {"step", "op", "var", "estimated", "actual"}

    def test_cypher_explain_deterministic(self):
        engine = self._engine()
        first = engine.run("EXPLAIN MATCH (a)-[:BEFORE]->(b) RETURN a")
        second = engine.run("EXPLAIN MATCH (a)-[:BEFORE]->(b) RETURN a")
        assert first == second

    def test_plan_starts_from_most_selective_scan(self):
        graph = PropertyGraph()
        graph.add_node("m0", entityType="Medication")
        for i in range(30):
            graph.add_node(f"s{i}", entityType="Sign_symptom")
        graph.create_property_index("entityType")
        graph.add_edge("m0", "s0", "CAUSES")
        pattern = GraphPattern(
            nodes=[
                NodePattern("s", (("entityType", "Sign_symptom"),)),
                NodePattern("m", (("entityType", "Medication"),)),
            ],
            edges=[EdgePattern("m", "s", "CAUSES")],
        )
        plan = plan_pattern(graph, pattern)
        # 1 Medication vs 30 Sign_symptoms: start at the medication
        # even though it is declared second.
        assert plan.steps[0].op == "scan"
        assert plan.steps[0].var == "m"
        assert plan.steps[0].estimated == 1.0
        assert plan.steps[1].op == "expand"
        assert plan.steps[1].from_var == "m"
        _assert_agrees(graph, pattern)

    def test_explain_actuals_match_execution(self):
        graph = _dense_graph()
        pattern = GraphPattern(
            nodes=[NodePattern("a"), NodePattern("b")],
            edges=[EdgePattern("a", "b", "BEFORE")],
        )
        bindings, rows = explain_pattern(graph, pattern)
        assert rows[-1]["actual"] == len(bindings)
        assert all(row["actual"] >= 0 for row in rows)

    def test_planner_counters_accumulate(self):
        graph = _dense_graph()
        pattern = GraphPattern(
            nodes=[NodePattern("a"), NodePattern("b")],
            edges=[EdgePattern("a", "b", "BEFORE")],
        )
        match_pattern(graph, pattern)
        match_pattern(graph, pattern)
        stats = graph.planner_stats()
        assert stats["counters"]["plans_executed"] == 2
        assert stats["counters"]["expand_steps"] == 2
        assert stats["counters"]["scan_steps"] == 2
        assert stats["statistics"]["n_nodes"] == 8


def _stats_fingerprint(graph) -> tuple:
    """Everything the planner reads, in comparable form.

    Edge ids differ between a mutated graph and a cold rebuild, so the
    fingerprint compares cardinalities and per-node/label degrees, not
    raw index contents.
    """
    nodes = sorted(node.node_id for node in graph.nodes())
    labels = sorted(
        {edge.label for edge in graph.edges()} | set(graph.edge_label_counts())
    )
    degrees = tuple(
        (
            node_id,
            label,
            graph.out_degree(node_id, label),
            graph.in_degree(node_id, label),
        )
        for node_id in nodes
        for label in labels
    )
    return (
        graph.statistics(),
        dict(graph.edge_label_counts()),
        degrees,
    )


def _rebuild(graph) -> PropertyGraph:
    """Cold rebuild from the surviving nodes/edges (fresh statistics)."""
    fresh = PropertyGraph()
    for node in graph.nodes():
        fresh.add_node(node.node_id, **node.properties)
    for key in graph.statistics()["indexed_properties"]:
        fresh.create_property_index(key)
    for edge in graph.edges():
        fresh.add_edge(edge.source, edge.target, edge.label, **edge.properties)
    return fresh


class TestStatisticsFreshness:
    def test_delete_and_readd_is_exact(self):
        graph = _dense_graph()
        edges = list(graph.edges())
        # Remove a third of the edges, then re-add half of those.
        removed = edges[::3]
        for edge in removed:
            graph.remove_edge(edge.edge_id)
        for edge in removed[::2]:
            graph.add_edge(edge.source, edge.target, edge.label)
        graph.remove_node("n3")  # cascades incident-edge unindexing
        graph.add_node("n3", entityType="Medication")
        assert _stats_fingerprint(graph) == _stats_fingerprint(
            _rebuild(graph)
        )

    def test_removing_all_edges_of_a_label_drops_the_entry(self):
        graph = PropertyGraph()
        graph.add_node("a")
        graph.add_node("b")
        edge = graph.add_edge("a", "b", "R")
        graph.add_edge("a", "b", "S")
        graph.remove_edge(edge.edge_id)
        assert graph.edge_label_counts() == {"S": 1}
        assert graph.edge_label_count("R") == 0

    def test_property_index_exact_after_delete_readd(self):
        graph = PropertyGraph()
        graph.create_property_index("entityType")
        graph.add_node("a", entityType="X")
        graph.add_node("b", entityType="X")
        graph.remove_node("a")
        graph.remove_node("b")
        stats = graph.statistics()["indexed_properties"]["entityType"]
        # No stale empty bucket: the value count returns to zero.
        assert stats == {"n_values": 0, "n_indexed_nodes": 0}
        assert graph.property_value_count("entityType", "X") == 0
