"""Seed-driven generators of synthetic fuzz cases.

Each generator consumes a :class:`random.Random` and returns a plain
JSON-serializable dict (lists, dicts, strings, numbers only) so a case
can be written to a seed file, replayed, and shrunk structurally
without any pickling.

The vocabulary deliberately mixes clinical-ish words, stopwords (so
phrase queries cross position gaps), 1-2 letter codes (kept whole by
the n-gram tokenizer), an accented word (asciifolding), and words
sharing stems (stemmer collisions).
"""

from __future__ import annotations

from random import Random

from repro.annotation.brat import serialize_ann
from repro.annotation.model import AnnotationDocument
from repro.testing.crash import FAULT_KINDS

VOCABULARY = [
    "fever",
    "fevers",
    "cough",
    "chest",
    "pain",
    "dyspnea",
    "amiodarone",
    "patient",
    "admitted",
    "acute",
    "renal",
    "failure",
    "mild",
    "café",
    "bp",
    "iv",
    "the",
    "and",
    "of",
    "was",
]

ANALYZERS = ["standard", "whitespace", "ngram"]

TEMPORAL_ALGEBRAS = ["three", "dense"]


def gen_text(rng: Random, max_words: int = 10, min_words: int = 0) -> str:
    n = rng.randint(min_words, max(min_words, max_words))
    return " ".join(rng.choice(VOCABULARY) for _ in range(n))


# -- search ------------------------------------------------------------------


def gen_query(rng: Random, depth: int = 0) -> dict:
    """One ES-style query dict (bool clauses nest at most twice)."""
    kinds = ["match", "match", "match_phrase", "term", "multi_match",
             "match_all"]
    if depth < 2:
        kinds += ["bool", "bool"]
    kind = rng.choice(kinds)
    field = rng.choice(["body", "title"])
    if kind == "match":
        return {"match": {field: gen_text(rng, 4, 1)}}
    if kind == "match_phrase":
        return {"match_phrase": {field: gen_text(rng, 4, 1)}}
    if kind == "term":
        return {"term": {field: rng.choice(VOCABULARY)}}
    if kind == "multi_match":
        fields = rng.choice([["body"], ["body^2", "title"], ["title^0.5"]])
        return {
            "multi_match": {"query": gen_text(rng, 3, 1), "fields": fields}
        }
    if kind == "match_all":
        return {"match_all": {}}
    body: dict = {}
    for clause in ("must", "should", "must_not"):
        n = rng.randint(0, 2)
        if n:
            body[clause] = [gen_query(rng, depth + 1) for _ in range(n)]
    if not body:
        body["should"] = [gen_query(rng, depth + 1)]
    return {"bool": body}


def _gen_index_op(rng: Random, max_id: int) -> dict:
    return {
        "op": "index",
        "id": f"d{rng.randint(0, max_id)}",
        "fields": {"body": gen_text(rng, 10), "title": gen_text(rng, 4)},
    }


def _gen_delete_op(rng: Random, max_id: int) -> dict:
    return {"op": "delete", "id": f"d{rng.randint(0, max_id)}"}


def gen_search_case(rng: Random) -> dict:
    """Documents + index/delete operations (never opening with a
    delete) + a query batch."""
    ops: list[dict] = []
    for _ in range(rng.randint(1, 8)):
        if ops and rng.random() < 0.25:
            ops.append(_gen_delete_op(rng, 5))
        else:
            ops.append(_gen_index_op(rng, 5))
    return {
        "analyzer": rng.choice(ANALYZERS),
        "ops": ops,
        "queries": [gen_query(rng) for _ in range(rng.randint(1, 5))],
    }


# -- graph -------------------------------------------------------------------

_EDGE_LABELS = ["BEFORE", "OVERLAP", "CAUSES", "MODIFIES"]
_NODE_TYPES = ["Sign_symptom", "Medication", "Lab_value"]


def _gen_edges(
    rng: Random, n_nodes: int, max_edges: int, loop_p: float
) -> list:
    edges = []
    for _ in range(rng.randint(0, max_edges)):
        src = f"n{rng.randint(0, n_nodes - 1)}"
        dst = (
            src  # deliberate self-loops
            if rng.random() < loop_p
            else f"n{rng.randint(0, n_nodes - 1)}"
        )
        edges.append([src, dst, rng.choice(_EDGE_LABELS)])
    return edges


def _gen_pattern(
    rng: Random, n_nodes: int, max_vars: int, max_edges: int
) -> tuple[list, list]:
    """(pattern_nodes, pattern_edges) over at most ``max_vars``
    variables, half of them typed, ~70% of the edges directed."""
    variables = [
        f"v{i}" for i in range(rng.randint(1, min(max_vars, n_nodes)))
    ]
    pattern_nodes = []
    for var in variables:
        props = {}
        if rng.random() < 0.5:
            props["entityType"] = rng.choice(_NODE_TYPES)
        pattern_nodes.append([var, props])
    pattern_edges = [
        [
            rng.choice(variables),
            rng.choice(variables),
            rng.choice(_EDGE_LABELS + [None]),
            rng.random() < 0.7,  # directed?
        ]
        for _ in range(rng.randint(0, max_edges))
    ]
    return pattern_nodes, pattern_edges


def gen_graph_case(rng: Random) -> dict:
    """A small multigraph (self-loops, parallel edges) plus a pattern."""
    n_nodes = rng.randint(1, 6)
    nodes = [
        [f"n{i}", {"entityType": rng.choice(_NODE_TYPES)}]
        for i in range(n_nodes)
    ]
    edges = _gen_edges(rng, n_nodes, 10, 0.2)
    pattern_nodes, pattern_edges = _gen_pattern(rng, n_nodes, 3, 4)
    return {
        "nodes": nodes,
        "edges": edges,
        "pattern_nodes": pattern_nodes,
        "pattern_edges": pattern_edges,
        "limit": rng.choice([None, None, rng.randint(1, 4)]),
        "index_property": rng.random() < 0.5,
    }


def gen_planner_case(rng: Random) -> dict:
    """A graph case sized for the join-order planner, plus a
    permutation seed for the edge-insertion metamorphic check.

    Compared to :func:`gen_graph_case` the graphs are a little larger
    (so scan-order choices actually differ) and skewed: one node type
    dominates, making property selectivity meaningful.  Patterns bias
    toward multiple edges so expansion order matters; self-loops
    exercise the planner's filter-only path.
    """
    n_nodes = rng.randint(2, 8)
    nodes = []
    for i in range(n_nodes):
        # Skewed type distribution: ~60% the first type.
        node_type = (
            _NODE_TYPES[0]
            if rng.random() < 0.6
            else rng.choice(_NODE_TYPES)
        )
        nodes.append([f"n{i}", {"entityType": node_type}])
    edges = _gen_edges(rng, n_nodes, 14, 0.15)
    pattern_nodes, pattern_edges = _gen_pattern(rng, n_nodes, 4, 5)
    return {
        "nodes": nodes,
        "edges": edges,
        "pattern_nodes": pattern_nodes,
        "pattern_edges": pattern_edges,
        "limit": rng.choice([None, None, rng.randint(1, 4)]),
        "index_property": rng.random() < 0.6,
        "permutation_seed": rng.randint(0, 2**31),
    }


# -- crf ---------------------------------------------------------------------


def gen_crf_case(rng: Random) -> dict:
    """Random linear-chain potentials, small enough for exhaustive decode."""
    n_steps = rng.randint(1, 5)
    n_labels = rng.randint(1, 4)

    def vec():
        return [round(rng.uniform(-3.0, 3.0), 6) for _ in range(n_labels)]

    return {
        "emissions": [vec() for _ in range(n_steps)],
        "transitions": [vec() for _ in range(n_labels)],
        "start": vec(),
        "end": vec(),
    }


# -- temporal ----------------------------------------------------------------


def _three_way_label(a: tuple[int, int], b: tuple[int, int]) -> str:
    # The three-way algebra models point events (paper Figure 5), so
    # only the start instants matter.
    if a[0] < b[0]:
        return "BEFORE"
    if a[0] > b[0]:
        return "AFTER"
    return "OVERLAP"


def _dense_label(a: tuple[int, int], b: tuple[int, int]) -> str:
    if a == b:
        return "SIMULTANEOUS"
    if a[1] < b[0]:
        return "BEFORE"
    if b[1] < a[0]:
        return "AFTER"
    if a[0] <= b[0] and b[1] <= a[1]:
        return "INCLUDES"
    if b[0] <= a[0] and a[1] <= b[1]:
        return "IS_INCLUDED"
    return "VAGUE"


def gen_temporal_case(rng: Random) -> dict:
    """Edges sampled from a random interval model (hence consistent),
    optionally perturbed with one random relabel (possibly not)."""
    algebra = rng.choice(TEMPORAL_ALGEBRAS)
    n_events = rng.randint(2, 6)
    intervals = {}
    for i in range(n_events):
        start = rng.randint(0, 8)
        intervals[f"e{i}"] = (start, start + rng.randint(1, 4))
    label_of = _three_way_label if algebra == "three" else _dense_label
    events = sorted(intervals)
    pairs = [
        (a, b) for i, a in enumerate(events) for b in events[i + 1:]
    ]
    rng.shuffle(pairs)
    keep = rng.randint(1, len(pairs))
    edges = [
        [a, b, label_of(intervals[a], intervals[b])]
        for a, b in pairs[:keep]
    ]
    if edges and rng.random() < 0.3:
        victim = rng.randrange(len(edges))
        labels = (
            ["BEFORE", "AFTER", "OVERLAP"]
            if algebra == "three"
            else [
                "BEFORE",
                "AFTER",
                "INCLUDES",
                "IS_INCLUDED",
                "SIMULTANEOUS",
                "VAGUE",
            ]
        )
        edges[victim][2] = rng.choice(labels)
    return {"algebra": algebra, "edges": edges}


# -- fusion / invariants -----------------------------------------------------


def gen_fusion_case(rng: Random) -> dict:
    """Ranked lists with deliberate score ties and doc overlap."""

    def ranked(n):
        return [
            [f"d{rng.randint(0, 6)}", float(rng.randint(0, 3))]
            for _ in range(n)
        ]

    return {
        "graph_ranked": ranked(rng.randint(0, 6)),
        "keyword_ranked": ranked(rng.randint(0, 6)),
        "size": rng.randint(1, 8),
    }


def gen_invariants_case(rng: Random) -> dict:
    """Inputs for the metamorphic invariant suite."""
    return {
        "search": gen_search_case(rng),
        "fusion": gen_fusion_case(rng),
        "shuffle_seed": rng.randint(0, 2**31),
    }


# -- durability / crash recovery ---------------------------------------------

_CATEGORIES = ["cardiovascular", "neurological", "infectious"]


def gen_relations(rng: Random, n_spans: int, labels) -> list:
    """Up to two ``[src, dst, label]`` triples between distinct spans."""
    relations = []
    if n_spans >= 2:
        for _ in range(rng.randint(0, 2)):
            src = rng.randrange(n_spans)
            dst = rng.randrange(n_spans)
            if src != dst:
                relations.append([src, dst, rng.choice(labels)])
    return relations


def gen_spans(rng: Random, text: str, labels) -> list:
    """Up to five ``[label, start, end, negated]`` spans over whole
    words of ``text``, in text order and never overlapping."""
    spans = []
    cursor = 0
    for word in text.split():
        start = text.index(word, cursor)
        cursor = start + len(word)
        if len(spans) < 5 and rng.random() < 0.4:
            spans.append(
                [rng.choice(labels), start, cursor, rng.random() < 0.15]
            )
    return spans


def gen_annotated_text(rng: Random, labels, relation_labels) -> tuple:
    """``(text, spans, relations)``: one report's text with extracted
    spans (:func:`gen_spans`) and relations between them."""
    text = gen_text(rng, 14, 6)
    spans = gen_spans(rng, text, labels)
    return text, spans, gen_relations(rng, len(spans), relation_labels)


def annotation_document(
    doc_id: str, text: str, spans: list, relations: list
) -> AnnotationDocument:
    """The annotation document ``spans`` and ``relations`` describe;
    span ``k`` gets the id ``T{k + 1}``."""
    doc = AnnotationDocument(doc_id=doc_id, text=text)
    for label, start, end, negated in spans:
        tb = doc.add_textbound(label, start, end)
        if negated:
            doc.add_attribute("Negated", tb.ann_id)
    for src, dst, label in relations:
        doc.add_relation(label, f"T{src + 1}", f"T{dst + 1}")
    return doc


def gen_crash_schedule(rng: Random, actions: list) -> dict:
    """``actions`` plus one planned fault and a commit/snapshot cadence.

    ``fault: None`` (~1 in 5) makes the case a fault-free snapshot+WAL
    equivalence check; ``at_op`` indexes into the stream of filesystem
    operations, so the same schedule gets crashed at many different
    WAL/snapshot boundaries across cases.
    """
    fault = None
    if rng.random() < 0.8:
        fault = {
            "kind": rng.choice(FAULT_KINDS),
            "at_op": rng.randint(0, 30),
            "seed": rng.randint(0, 2**31),
        }
    return {
        "actions": actions,
        "fault": fault,
        "group_commit": rng.choice([1, 1, 2, 3, 4]),
        "snapshot_every": rng.choice([None, None, 2, 3, 5]),
    }


_REPORT_IDS = ("d0", "d1", "d2", "d3")
_SPAN_LABELS = ("Sign_symptom", "Disease_disorder", "Medication", "Lab_value")
_RELATION_LABELS = ("BEFORE", "OVERLAP", "CAUSES")


def _standoff(doc_id: str, text: str, spans: list, relations: list) -> str:
    return serialize_ann(annotation_document(doc_id, text, spans, relations))


def gen_durability_case(rng: Random) -> dict:
    """Requests to the assembled application plus one planned fault.

    Three actions: ``register`` (about one in three keyword-only, with
    no standoff), ``put`` (new spans over a live report's text, as a
    BRAT standoff) and ``delete``.  Ids come from a pool of four, so a
    deleted id is often registered again.
    """
    actions = []
    live: dict[str, str] = {}  # report id -> its text
    for _ in range(rng.randint(1, 8)):
        roll = rng.random()
        free = [doc_id for doc_id in _REPORT_IDS if doc_id not in live]
        if live and (roll < 0.2 or not free):
            doc_id = rng.choice(sorted(live))
            del live[doc_id]
            actions.append({"act": "delete", "id": doc_id})
        elif live and roll < 0.4:
            doc_id = rng.choice(sorted(live))
            text = live[doc_id]
            spans = gen_spans(rng, text, _SPAN_LABELS)
            relations = gen_relations(rng, len(spans), _RELATION_LABELS)
            actions.append(
                {
                    "act": "put",
                    "id": doc_id,
                    "ann": _standoff(doc_id, text, spans, relations),
                }
            )
        else:
            doc_id = rng.choice(free)
            text, spans, relations = gen_annotated_text(
                rng, _SPAN_LABELS, _RELATION_LABELS
            )
            ann = None
            if rng.random() >= 0.3:
                ann = _standoff(doc_id, text, spans, relations)
            actions.append(
                {
                    "act": "register",
                    "id": doc_id,
                    "title": gen_text(rng, 3, 1),
                    "text": text,
                    "category": rng.choice(_CATEGORIES),
                    "ann": ann,
                }
            )
            live[doc_id] = text
    return gen_crash_schedule(rng, actions)
