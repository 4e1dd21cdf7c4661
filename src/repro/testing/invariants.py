"""Metamorphic invariants: properties that must hold without an oracle.

Where the differential oracles ask "does the optimized code agree with
brute force?", these ask "does the optimized code agree with *itself*
under input transformations that provably preserve the answer":

* document insertion-order permutation leaves every ranking unchanged;
* indexing then deleting a document restores the index statistics
  byte-for-byte;
* analyzing a batch serially vs. in parallel (via
  :class:`repro.runtime.BatchExecutor`) builds byte-identical indexes;
* duplicating a query term never lowers any document's score (BM25
  idf is strictly positive in the Lucene variant);
* result fusion is insensitive to the order its input rankings arrive
  in, and respects the block structure/size contract;
* permuting the edge-insertion order of a property graph changes
  neither the pattern-match binding set nor the planner's chosen plan
  (cardinality statistics are exact counts, so estimates — and the
  greedy join order derived from them — cannot depend on arrival
  order).

Each check returns ``None`` on success or a human-readable failure
message.
"""

from __future__ import annotations

import random

from repro.graphdb.graph import PropertyGraph
from repro.graphdb.match import EdgePattern, GraphPattern, NodePattern
from repro.graphdb.planner import explain_pattern
from repro.ir.ranking import fuse_results
from repro.runtime.executor import BatchExecutor
from repro.search.analysis import create_analyzer
from repro.search.engine import SearchEngine
from repro.search.inverted_index import InvertedIndex
from repro.testing.lockstep import field_analyzers, search_once
from repro.testing.oracles import ANALYZER_CONFIGS, reference_fuse

_TOLERANCE = 1e-9


def _live_docs(case: dict) -> list[tuple[str, dict]]:
    """The documents left alive after replaying the case's op stream."""
    alive: dict[str, dict] = {}
    for op in case["ops"]:
        if op["op"] == "index":
            alive.pop(op["id"], None)
            alive[op["id"]] = op["fields"]
        else:
            alive.pop(op["id"], None)
    return list(alive.items())


def _build_engine(case: dict, docs: list[tuple[str, dict]]) -> SearchEngine:
    engine = SearchEngine(field_analyzers(case))
    for doc_id, fields in docs:
        engine.index(doc_id, fields)
    return engine


def _rankings(engine: SearchEngine, queries) -> list:
    return [search_once(engine, query, size=50) for query in queries]


def engine_index_snapshot(engine: SearchEngine) -> str:
    """A canonical byte-for-byte rendering of all index statistics.

    Deliberately excludes ``_next_ordinal`` (a monotone allocator) and
    empty per-field indexes (an index every document has left is
    semantically identical to one never created) — everything that
    influences scoring or retrieval is included.
    """
    parts = []
    for field in sorted(engine._indexes):
        index: InvertedIndex = engine._indexes[field]
        if index.n_documents == 0 and index.vocabulary_size == 0:
            continue
        postings = {
            term: [(p.doc_ord, tuple(p.positions)) for p in plist]
            for term, plist in sorted(index._postings.items())
        }
        parts.append(
            repr(
                (
                    field,
                    postings,
                    sorted(index._doc_lengths.items()),
                    index._total_length,
                    sorted(index._doc_terms.items()),
                )
            )
        )
    return "\n".join(parts)


# -- invariant checks --------------------------------------------------------


def check_permutation_invariance(case: dict, shuffle_seed: int) -> str | None:
    """Doc insertion order must not affect any query's ranking."""
    docs = _live_docs(case)
    if len(docs) < 2:
        return None
    shuffled = list(docs)
    random.Random(shuffle_seed).shuffle(shuffled)
    base = _rankings(_build_engine(case, docs), case["queries"])
    permuted = _rankings(_build_engine(case, shuffled), case["queries"])
    for query, a, b in zip(case["queries"], base, permuted):
        if a != b:
            return (
                "insertion-order permutation changed ranking for "
                f"{query!r}: {a} vs {b}"
            )
    return None


def check_add_remove_restores(case: dict) -> str | None:
    """index() then delete() of a new doc must restore statistics."""
    engine = _build_engine(case, _live_docs(case))
    before = engine_index_snapshot(engine)
    engine.index(
        "__probe__", {"body": "probe fever cough", "title": "probe"}
    )
    engine.delete("__probe__")
    after = engine_index_snapshot(engine)
    if before != after:
        return (
            "add-then-remove did not restore index statistics:\n"
            f"before:\n{before}\nafter:\n{after}"
        )
    return None


def check_serial_parallel_ingest(case: dict) -> str | None:
    """Serial and parallel analysis must build byte-identical indexes."""
    docs = _live_docs(case)
    if not docs:
        return None
    analyzers = {
        field: create_analyzer(config)
        for field, config in field_analyzers(case).items()
    }

    def analyze(item):
        _doc_id, fields = item
        return {
            field: analyzers[field].analyze(text)
            for field, text in fields.items()
            if isinstance(text, str) and field in analyzers
        }

    snapshots = []
    for workers in (1, 4):
        outcomes = BatchExecutor(workers=workers, mode="thread").map(
            analyze, docs
        )
        if not all(outcome.ok for outcome in outcomes):
            errors = [o.error for o in outcomes if not o.ok]
            return f"parallel analysis failed: {errors!r}"
        indexes: dict[str, InvertedIndex] = {}
        for ordinal, outcome in enumerate(outcomes):
            for field, tokens in outcome.value.items():
                indexes.setdefault(field, InvertedIndex()).add_document(
                    ordinal, tokens
                )
        fake = SearchEngine()
        fake._indexes = indexes
        snapshots.append(engine_index_snapshot(fake))
    if snapshots[0] != snapshots[1]:
        return (
            "serial vs parallel ingest built different indexes:\n"
            f"{snapshots[0]}\nvs\n{snapshots[1]}"
        )
    return None


def check_duplication_monotonicity(case: dict) -> str | None:
    """Duplicating a query term must never lower a document's score."""
    engine = _build_engine(case, _live_docs(case))
    for query in case["queries"]:
        if "match" not in query:
            continue
        ((field, text),) = query["match"].items()
        words = str(text).split()
        if not words:
            continue
        base = {
            hit.doc_id: hit.score
            for hit in engine.search({"match": {field: text}}, size=1000)
        }
        doubled_text = f"{text} {words[0]}"
        doubled = {
            hit.doc_id: hit.score
            for hit in engine.search(
                {"match": {field: doubled_text}}, size=1000
            )
        }
        missing = set(base) - set(doubled)
        if missing:
            return (
                f"duplicating {words[0]!r} dropped docs {sorted(missing)} "
                f"from {query!r}"
            )
        for doc_id, score in base.items():
            if doubled[doc_id] < score - _TOLERANCE:
                return (
                    f"duplicating {words[0]!r} lowered score of "
                    f"{doc_id!r}: {score} -> {doubled[doc_id]}"
                )
    return None


def check_phrase_self_match(case: dict) -> str | None:
    """A document must phrase-match its own field text.

    The analyzed query positions (including stopword gaps) are exactly
    the document's own indexed positions, so the phrase necessarily
    occurs at start 0 — regardless of analyzer.
    """
    docs = _live_docs(case)
    engine = _build_engine(case, docs)
    for doc_id, fields in docs:
        for field in ("body", "title"):
            text = fields.get(field)
            if not isinstance(text, str):
                continue
            if not engine.explain_terms(field, text):
                continue  # nothing survives analysis (e.g. all stopwords)
            hits = engine.search(
                {"match_phrase": {field: text}}, size=1000
            )
            if doc_id not in {hit.doc_id for hit in hits}:
                return (
                    f"doc {doc_id!r} does not phrase-match its own "
                    f"{field} text {text!r}"
                )
    return None


def check_fusion_determinism(
    fusion_case: dict, shuffle_seed: int
) -> str | None:
    """fuse_results must ignore input order and honor its contract."""
    graph_ranked = [tuple(item) for item in fusion_case["graph_ranked"]]
    keyword_ranked = [tuple(item) for item in fusion_case["keyword_ranked"]]
    size = fusion_case["size"]
    base = fuse_results(graph_ranked, keyword_ranked, size)

    expected = reference_fuse(graph_ranked, keyword_ranked, size)
    if base != expected:
        return f"fusion disagrees with reference: {base} vs {expected}"

    rng = random.Random(shuffle_seed)
    for _ in range(3):
        shuffled_graph = list(graph_ranked)
        shuffled_keyword = list(keyword_ranked)
        rng.shuffle(shuffled_graph)
        rng.shuffle(shuffled_keyword)
        again = fuse_results(shuffled_graph, shuffled_keyword, size)
        if again != base:
            return (
                "fusion output depends on input order: "
                f"{base} vs {again}"
            )

    if len(base) > size:
        return f"fusion exceeded size {size}: {base}"
    doc_ids = [doc_id for doc_id, _score, _engine in base]
    if len(doc_ids) != len(set(doc_ids)):
        return f"fusion emitted duplicate doc ids: {base}"
    engines = [engine for _doc_id, _score, engine in base]
    if "keyword" in engines and "graph" in engines[engines.index("keyword"):]:
        return f"keyword hit ranked above a graph hit: {base}"
    return None


def build_graph_case(case: dict, edges: list | None = None):
    """(graph, pattern) of a graph/planner fuzz case, or ``None`` when
    the case is malformed (post-shrink) and so vacuous.  ``edges``
    overrides the insertion order with a permutation of
    ``case["edges"]``."""
    try:
        graph = PropertyGraph()
        for node_id, props in case["nodes"]:
            graph.add_node(node_id, **props)
        if case.get("index_property"):
            graph.create_property_index("entityType")
        for src, dst, label in case["edges"] if edges is None else edges:
            graph.add_edge(src, dst, label)
        pattern = GraphPattern(
            nodes=[
                NodePattern(var, properties=tuple(sorted(props.items())))
                for var, props in case["pattern_nodes"]
            ],
            edges=[
                EdgePattern(src, dst, label=label, directed=bool(directed))
                for src, dst, label, directed in case["pattern_edges"]
            ],
        )
        pattern.validate()
    except Exception:
        return None
    return graph, pattern


def binding_keys(bindings) -> list:
    """Each binding as a hashable ``frozenset((var, node_id), ...)``."""
    return [
        frozenset((var, node.node_id) for var, node in binding.items())
        for binding in bindings
    ]


def check_edge_permutation_invariance(
    case: dict, permutation_seed: int
) -> str | None:
    """Edge insertion order must not change bindings or the plan.

    The planner's estimates come from exact counters (label histogram,
    property-index bucket sizes), all invariant under permutation, and
    the executor sorts candidate node ids — so both the chosen plan
    (every EXPLAIN row, estimates included) and the binding set must be
    bit-identical however the same edge multiset arrives.
    """
    built = build_graph_case(case)
    if built is None:
        return None
    graph, pattern = built
    base_bindings, base_rows = explain_pattern(graph, pattern)
    base_set = set(binding_keys(base_bindings))
    rng = random.Random(permutation_seed)
    for _ in range(3):
        shuffled = list(case["edges"])
        rng.shuffle(shuffled)
        graph2, pattern2 = build_graph_case(case, shuffled)
        bindings, rows = explain_pattern(graph2, pattern2)
        if rows != base_rows:
            return (
                "edge-insertion permutation changed the plan:\n"
                f"{base_rows}\nvs\n{rows}"
            )
        permuted_set = set(binding_keys(bindings))
        if permuted_set != base_set:
            return (
                "edge-insertion permutation changed the binding set: "
                f"{sorted(map(sorted, base_set))} vs "
                f"{sorted(map(sorted, permuted_set))}"
            )
    return None


def check_invariants_case(case: dict) -> str | None:
    """Run the whole invariant suite for one generated case."""
    search_case = case.get("search") or {}
    if search_case.get("analyzer") not in ANALYZER_CONFIGS:
        return None  # malformed (post-shrink) case: vacuous
    shuffle_seed = case.get("shuffle_seed", 0)
    for check, args in (
        (check_permutation_invariance, (search_case, shuffle_seed)),
        (check_add_remove_restores, (search_case,)),
        (check_serial_parallel_ingest, (search_case,)),
        (check_duplication_monotonicity, (search_case,)),
        (check_phrase_self_match, (search_case,)),
        (check_fusion_determinism, (case["fusion"], shuffle_seed)),
    ):
        message = check(*args)
        if message is not None:
            return f"{check.__name__}: {message}"
    return None
