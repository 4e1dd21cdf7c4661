"""The differential runner: optimized implementations vs. oracles.

For each subsystem a checker replays one generated case through both
the production code path and the brute-force oracle and returns
``None`` (agreement) or a failure message.  :func:`run` drives seeded
batches across subsystems and reports a digest of the exact case
sequence, so determinism itself is testable (same seed, same digest).
"""

from __future__ import annotations

import hashlib
import json
import time
import traceback
from dataclasses import dataclass, field
from random import Random
from typing import Callable, NamedTuple

import numpy as np

from repro.exceptions import TemporalInconsistencyError
from repro.graphdb.match import iter_edge_bindings, match_pattern
from repro.graphdb.planner import explain_pattern
from repro.ml import infer
from repro.search.engine import SearchEngine
from repro.temporal.graph import TemporalGraph
from repro.temporal.relations import DENSE_ALGEBRA, THREE_WAY_ALGEBRA
from repro.testing import generators
from repro.testing.crash import check_durability_case
from repro.testing.invariants import (
    binding_keys,
    build_graph_case,
    check_edge_permutation_invariance,
    check_invariants_case,
)
from repro.testing.lockstep import (
    apply_ops,
    close,
    compare_queries,
    field_analyzers,
    valid_ops,
)
from repro.testing.oracles import (
    ANALYZER_CONFIGS,
    ReferenceSearchEngine,
    brute_force_bindings,
    exhaustive_decode,
    match_pattern_unplanned,
    reference_closure,
)
from repro.testing.cohort import check_cohort_case, gen_cohort_case
from repro.testing.review import check_review_case, gen_review_case
from repro.testing.rng import case_rng


@dataclass(frozen=True)
class Failure:
    """One reproducible optimized-vs-oracle disagreement."""

    subsystem: str
    seed: int
    case_index: int
    message: str
    case: dict


@dataclass
class RunReport:
    """Outcome of one batch run."""

    seed: int
    cases_per_subsystem: int
    counts: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    digest: str = ""
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures


# -- per-subsystem checkers --------------------------------------------------


def _postings_order_invariant(engine, analyzers) -> str | None:
    """Mutate-vs-rebuild: after any op stream, every postings list must
    be strictly doc-ord ascending and order-equivalent to a cold
    rebuild of the surviving documents.

    BM25 accumulates scores in postings order, so an out-of-order list
    makes score iteration diverge from a cold rebuild; the old
    append-at-tail ``InvertedIndex.add_document`` did that for
    re-added ordinals.
    """
    live = sorted(engine._ids_by_ordinal.items())
    rebuilt = SearchEngine(analyzers)
    for _, doc_id in live:
        rebuilt.index(doc_id, engine._sources[doc_id])
    for field_name, index in engine._indexes.items():
        other = rebuilt._indexes.get(field_name)
        terms = index.terms()
        if sorted(terms) != sorted(other.terms() if other else []):
            return (
                f"field {field_name!r} vocabulary diverged from rebuild"
            )
        doc_of = engine._ids_by_ordinal
        rebuilt_doc_of = rebuilt._ids_by_ordinal
        for term in terms:
            posts = index.postings(term)
            ords = [p.doc_ord for p in posts]
            if any(a >= b for a, b in zip(ords, ords[1:])):
                return (
                    f"postings for {field_name}:{term!r} not strictly "
                    f"doc-ord ascending: {ords}"
                )
            got = [(doc_of[p.doc_ord], p.positions) for p in posts]
            want = [
                (rebuilt_doc_of[p.doc_ord], p.positions)
                for p in other.postings(term)
            ]
            if got != want:
                return (
                    f"postings for {field_name}:{term!r} diverged from "
                    f"cold rebuild: {got!r} vs {want!r}"
                )
    return None


def check_search_case(case: dict) -> str | None:
    if case.get("analyzer") not in ANALYZER_CONFIGS or not valid_ops(
        case.get("ops")
    ):
        return None  # malformed (post-shrink) case: vacuous
    analyzers = field_analyzers(case)
    engine = SearchEngine(analyzers)
    reference = ReferenceSearchEngine(analyzers)
    message = apply_ops(case["ops"], engine, reference)
    if message is not None:
        return message
    message = _postings_order_invariant(engine, analyzers)
    if message is not None:
        return message
    return compare_queries(case["queries"], engine, reference, "search")


def _oracle_bindings(graph, pattern) -> set:
    return {
        frozenset(binding.items())
        for binding in brute_force_bindings(graph, pattern)
    }


def _check_bindings(graph, pattern, limit, expected: set, bindings) -> str | None:
    """``match_pattern`` vs. the exhaustive oracle: no duplicates, the
    same binding set, and ``limit`` honoured with admissible bindings."""
    got = binding_keys(bindings)
    if len(got) != len(set(got)):
        return f"match_pattern returned duplicate bindings: {got!r}"
    if set(got) != expected:
        return (
            f"bindings diverged: match_pattern {sorted(map(sorted, got))} "
            f"vs oracle {sorted(map(sorted, expected))}"
        )
    if limit is not None:
        limited = binding_keys(match_pattern(graph, pattern, limit=limit))
        if len(limited) != min(limit, len(expected)):
            return (
                f"limit={limit} returned {len(limited)} bindings, "
                f"expected {min(limit, len(expected))}"
            )
        for key in limited:
            if key not in expected:
                return f"limited binding {sorted(key)} not admissible"
    return None


def check_graph_case(case: dict) -> str | None:
    built = build_graph_case(case)
    if built is None:
        return None
    graph, pattern = built
    got_bindings = match_pattern(graph, pattern)
    message = _check_bindings(
        graph,
        pattern,
        case.get("limit"),
        _oracle_bindings(graph, pattern),
        got_bindings,
    )
    if message is not None:
        return message
    for binding in got_bindings[:5]:
        realized = list(iter_edge_bindings(graph, binding, pattern))
        if len(realized) != len(pattern.edges):
            return (
                f"iter_edge_bindings realized {len(realized)} of "
                f"{len(pattern.edges)} edges for {sorted(binding)}"
            )
        for edge_pattern, edge in realized:
            if not edge_pattern.admits(edge):
                return f"iter_edge_bindings yielded inadmissible {edge!r}"
            src = binding[edge_pattern.source].node_id
            dst = binding[edge_pattern.target].node_id
            endpoints_ok = edge.source == src and edge.target == dst
            if not endpoints_ok and not edge_pattern.directed:
                endpoints_ok = edge.source == dst and edge.target == src
            if not endpoints_ok:
                return (
                    f"iter_edge_bindings edge {edge!r} does not connect "
                    f"{src!r}->{dst!r}"
                )
    return None


def check_planner_case(case: dict) -> str | None:
    """Planner-aware differential check, four layers deep:

    1. planned ``match_pattern`` vs. the exhaustive oracle (binding-set
       equivalence, no duplicates);
    2. planned vs. the preserved pre-planner engine
       (:func:`match_pattern_unplanned`);
    3. EXPLAIN: deterministic plan rows across repeated planning, every
       pattern variable planned exactly once, the summary row's actual
       cardinality equal to the true result count;
    4. metamorphic: permuting edge-insertion order changes neither the
       plan nor the binding set.
    """
    built = build_graph_case(case)
    if built is None:
        return None
    graph, pattern = built
    expected = _oracle_bindings(graph, pattern)
    message = _check_bindings(
        graph,
        pattern,
        case.get("limit"),
        expected,
        match_pattern(graph, pattern),
    )
    if message is not None:
        return message
    unplanned = set(binding_keys(match_pattern_unplanned(graph, pattern)))
    if unplanned != expected:
        return (
            f"pre-planner engine diverged from oracle: "
            f"{sorted(map(sorted, unplanned))} vs "
            f"{sorted(map(sorted, expected))}"
        )
    bindings, rows = explain_pattern(graph, pattern)
    _again, rows_again = explain_pattern(graph, pattern)
    if rows != rows_again:
        return f"EXPLAIN is not deterministic: {rows} vs {rows_again}"
    explained = set(binding_keys(bindings))
    if explained != expected:
        return (
            f"explain_pattern bindings diverged from oracle: "
            f"{sorted(map(sorted, explained))}"
        )
    planned_vars = sorted(
        row["var"] for row in rows if row["op"] in ("scan", "expand")
    )
    pattern_vars = sorted(node.var for node in pattern.nodes)
    if planned_vars != pattern_vars:
        return (
            f"plan covers variables {planned_vars}, pattern has "
            f"{pattern_vars}: {rows}"
        )
    if rows and rows[-1]["op"] == "result":
        if rows[-1]["actual"] != len(expected):
            return (
                f"EXPLAIN result row claims {rows[-1]['actual']} "
                f"bindings, oracle has {len(expected)}"
            )
    return check_edge_permutation_invariance(
        case, case.get("permutation_seed", 0)
    )


def check_crf_case(case: dict) -> str | None:
    try:
        emissions = np.asarray(case["emissions"], dtype=float)
        transitions = np.asarray(case["transitions"], dtype=float)
        start = np.asarray(case["start"], dtype=float)
        end = np.asarray(case["end"], dtype=float)
        if (
            emissions.ndim != 2
            or transitions.shape != (emissions.shape[1],) * 2
            or start.shape != (emissions.shape[1],)
            or end.shape != (emissions.shape[1],)
            or emissions.shape[0] > 7
            or emissions.shape[1] > 5
        ):
            return None  # malformed (post-shrink) case: vacuous
    except (ValueError, KeyError):
        return None
    best_score, _best_path, log_z = exhaustive_decode(
        case["emissions"], case["transitions"], case["start"], case["end"]
    )
    path, score = infer.viterbi(emissions, transitions, start, end)
    if not close(score, best_score):
        return (
            f"viterbi score {score} != exhaustive max {best_score}"
        )
    realized = infer.sequence_score(
        path, emissions, transitions, start, end
    )
    if not close(realized, best_score):
        return (
            f"viterbi path scores {realized}, exhaustive max {best_score} "
            f"(backpointers inconsistent with claimed score {score})"
        )
    _alpha, forward_z = infer.forward_log(emissions, transitions, start, end)
    if not close(forward_z, log_z):
        return f"forward log Z {forward_z} != exhaustive {log_z}"
    return None


_ALGEBRAS = {"three": THREE_WAY_ALGEBRA, "dense": DENSE_ALGEBRA}


def check_temporal_case(case: dict) -> str | None:
    algebra = _ALGEBRAS.get(case.get("algebra"))
    if algebra is None:
        return None
    edges = case["edges"]
    for item in edges:
        if len(item) != 3 or item[0] == item[1]:
            return None  # malformed (post-shrink) case: vacuous
        if item[2] not in algebra.labels:
            return None
    tg = TemporalGraph(algebra=algebra)
    status = "ok"
    try:
        for src, dst, label in edges:
            tg.add(src, dst, label)
        tg.close()
    except TemporalInconsistencyError:
        status = "inconsistent"
    ref_status, ref_payload = reference_closure(edges, algebra)
    if status != ref_status:
        return (
            f"consistency verdicts diverged: TemporalGraph {status}, "
            f"oracle {ref_status} ({ref_payload!r})"
        )
    if status != "ok":
        return None
    got = {(a, b): label for a, b, label in tg.edges()}
    if got != ref_payload:
        only_got = {k: v for k, v in got.items() if ref_payload.get(k) != v}
        only_ref = {k: v for k, v in ref_payload.items() if got.get(k) != v}
        return (
            f"closures diverged: graph-only {only_got!r}, "
            f"oracle-only {only_ref!r}"
        )
    if tg.close() != 0:
        return "close() is not idempotent: second pass inferred relations"
    if tg.n_relations != tg.n_explicit + tg.n_inferred:
        return (
            f"relation accounting broken: {tg.n_relations} != "
            f"{tg.n_explicit} + {tg.n_inferred}"
        )
    return None


class Subsystem(NamedTuple):
    """One fuzzed subsystem: a seeded case generator and its checker."""

    name: str
    generate: Callable[[Random], dict]
    check: Callable[[dict], str | None]


TABLE = (
    Subsystem("search", generators.gen_search_case, check_search_case),
    Subsystem("graph", generators.gen_graph_case, check_graph_case),
    Subsystem("planner", generators.gen_planner_case, check_planner_case),
    Subsystem("crf", generators.gen_crf_case, check_crf_case),
    Subsystem("temporal", generators.gen_temporal_case, check_temporal_case),
    Subsystem(
        "invariants", generators.gen_invariants_case, check_invariants_case
    ),
    Subsystem(
        "durability", generators.gen_durability_case, check_durability_case
    ),
    Subsystem("cohort", gen_cohort_case, check_cohort_case),
    Subsystem("review", gen_review_case, check_review_case),
)

# Derived views of the one table.
SUBSYSTEMS = tuple(subsystem.name for subsystem in TABLE)
GENERATORS = {subsystem.name: subsystem.generate for subsystem in TABLE}
CHECKERS = {subsystem.name: subsystem.check for subsystem in TABLE}


def generate_case(subsystem: str, seed: int, case_index: int) -> dict:
    """Deterministically regenerate one case."""
    return GENERATORS[subsystem](case_rng(seed, subsystem, case_index))


def check_case(subsystem: str, case: dict) -> str | None:
    """Run one case; unexpected harness exceptions count as failures."""
    try:
        return CHECKERS[subsystem](case)
    except Exception:
        return "checker crashed:\n" + traceback.format_exc(limit=6)


def case_digest(case: dict) -> str:
    """Stable content hash of a case (used for run digests)."""
    payload = json.dumps(case, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def run(
    subsystems=SUBSYSTEMS,
    seed: int = 0,
    cases: int = 200,
    fail_fast: bool = True,
    on_progress=None,
) -> RunReport:
    """Fuzz ``cases`` cases per subsystem; collect failures.

    With ``fail_fast`` a failing subsystem stops early (its remaining
    cases are skipped) but other subsystems still run.
    """
    report = RunReport(seed=seed, cases_per_subsystem=cases)
    hasher = hashlib.sha256()
    started = time.perf_counter()
    for subsystem in subsystems:
        if subsystem not in GENERATORS:
            raise ValueError(f"unknown subsystem {subsystem!r}")
        executed = 0
        for index in range(cases):
            case = generate_case(subsystem, seed, index)
            hasher.update(case_digest(case).encode("ascii"))
            message = check_case(subsystem, case)
            executed += 1
            if message is not None:
                report.failures.append(
                    Failure(subsystem, seed, index, message, case)
                )
                if fail_fast:
                    break
        report.counts[subsystem] = executed
        if on_progress is not None:
            on_progress(subsystem, executed)
    report.digest = hasher.hexdigest()
    report.elapsed = time.perf_counter() - started
    return report
