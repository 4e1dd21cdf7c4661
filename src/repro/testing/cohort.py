"""Differential fuzzing for the cohort engine.

Each case regenerates a small gold corpus from a seed, assembles the
full production stack (docstore + dual index + cohort engine) and the
:class:`BruteForceCohortEvaluator` oracle, and checks three properties:

1. **differential** — composed-engine membership and every per-criterion
   candidate set are bit-identical to the per-document oracle;
2. **permutation invariance** — shuffling the criterion lists (which
   reorders the engine's short-circuit plan) leaves membership
   unchanged;
3. **delete metamorphic** — deleting reports through the production
   ``DELETE /reports/{id}`` path removes exactly those members: every
   criterion is a per-report predicate, so unrelated deletions cannot
   change any other report's membership.

Criteria are sampled from the regenerated corpus itself (real span
surfaces, real metadata values) so most criteria are satisfiable, with
a sprinkle of never-matching criteria to exercise the short-circuit
path.
"""

from __future__ import annotations

import random

from repro.cohort.model import CohortDefinition
from repro.exceptions import CohortError

CORPUS_CATEGORIES = (
    "cardiovascular",
    "cancer",
    "infectious disease",
    "neurology",
    "respiratory",
)

_ENTITY_TYPES = (
    "Sign_symptom",
    "Disease_disorder",
    "Medication",
    "Lab_value",
    "Diagnostic_procedure",
    "Therapeutic_procedure",
    "History",
)

_TEMPORAL_RELATIONS = ("BEFORE", "AFTER", "OVERLAP")


def _generate_corpus(corpus_seed: int, categories: list[str]):
    from repro.corpus.generator import CaseReportGenerator

    generator = CaseReportGenerator(seed=corpus_seed)
    return [
        generator.generate(f"fz-{index:03d}", category=category)
        for index, category in enumerate(categories)
    ]


def _sample_span(rng: random.Random, reports) -> tuple[str, str]:
    """(entity_type, surface) of a random real span from the corpus."""
    report = rng.choice(reports)
    spans = report.annotations.spans_sorted()
    span = rng.choice(spans)
    return span.label, span.text


def _gen_mention_spec(rng: random.Random, reports) -> dict:
    roll = rng.random()
    if roll < 0.45:
        entity_type, surface = _sample_span(rng, reports)
        spec = {"entity_type": entity_type, "value": surface}
    elif roll < 0.8:
        spec = {"entity_type": rng.choice(_ENTITY_TYPES), "value": None}
    else:  # rarely-matching spec: real type, fictitious surface
        spec = {
            "entity_type": rng.choice(_ENTITY_TYPES),
            "value": f"no-such-surface-{rng.randint(0, 99)}",
        }
    spec["negated"] = rng.choice([False, False, False, True, None])
    return spec


def _gen_criterion(rng: random.Random, reports) -> dict:
    kind = rng.choices(
        ("entity", "temporal", "graph", "text", "value"),
        weights=(30, 25, 10, 15, 20),
    )[0]
    if kind == "entity":
        return {"kind": "entity", **_gen_mention_spec(rng, reports)}
    if kind == "temporal":
        return {
            "kind": "temporal",
            "relation": rng.choice(_TEMPORAL_RELATIONS),
            "a": _gen_mention_spec(rng, reports),
            "b": _gen_mention_spec(rng, reports),
        }
    if kind == "graph":
        # One- or two-node pattern over indexed properties; a second
        # variable connects through a temporal edge half the time.
        nodes = [["x", {"entityType": rng.choice(_ENTITY_TYPES)}]]
        edges = []
        if rng.random() < 0.6:
            nodes.append(["y", {"entityType": rng.choice(_ENTITY_TYPES)}])
            if rng.random() < 0.8:
                label = rng.choice(("BEFORE", "OVERLAP", None))
                edges.append(
                    ["x", "y", label, label == "BEFORE"]
                )
            else:
                # Unconnected two-node pattern: same-report conjunction.
                nodes[1][1]["doc_id"] = rng.choice(reports).report_id
        return {"kind": "graph", "nodes": nodes, "edges": edges}
    if kind == "text":
        if rng.random() < 0.7:
            _entity_type, surface = _sample_span(rng, reports)
            query = surface
        else:
            query = rng.choice(("fever", "aspirin", "zzzqqq"))
        return {"kind": "text", "query": query}
    field_name = rng.choice(("year", "category", "journal", "mesh_terms"))
    document = rng.choice(reports).to_document()
    if field_name == "year":
        year = document["year"]
        return rng.choice(
            [
                {"kind": "value", "field": "year", "op": "gte", "value": year},
                {"kind": "value", "field": "year", "op": "lte", "value": year},
                {
                    "kind": "value",
                    "field": "year",
                    "op": "between",
                    "value": [year - rng.randint(0, 5), year],
                },
            ]
        )
    value = document[field_name]
    if isinstance(value, list):
        value = rng.choice(value) if value else "none"
    if rng.random() < 0.3:
        return {
            "kind": "value",
            "field": field_name,
            "op": "in",
            "value": [value, "no-such-value"],
        }
    op = rng.choice(("eq", "ne"))
    return {"kind": "value", "field": field_name, "op": op, "value": value}


def gen_cohort_case(rng: random.Random) -> dict:
    """One self-contained, JSON-serializable cohort fuzz case."""
    n_docs = rng.randint(2, 6)
    corpus_seed = rng.randint(0, 10**6)
    categories = [rng.choice(CORPUS_CATEGORIES) for _ in range(n_docs)]
    reports = _generate_corpus(corpus_seed, categories)
    inclusion = [
        _gen_criterion(rng, reports) for _ in range(rng.randint(0, 3))
    ]
    exclusion = [
        _gen_criterion(rng, reports) for _ in range(rng.randint(0, 2))
    ]
    n_deletes = rng.randint(0, max(0, n_docs - 1))
    deletes = sorted(rng.sample(range(n_docs), n_deletes))
    return {
        "corpus_seed": corpus_seed,
        "categories": categories,
        "inclusion": inclusion,
        "exclusion": exclusion,
        "deletes": deletes,
        "permutation_seed": rng.randint(0, 2**31 - 1),
    }


def _build_stack(reports):
    """(app, engine, oracle) over one regenerated corpus."""
    from repro.api.app import CreateApplication
    from repro.docstore.store import DocumentStore
    from repro.ir.indexer import CreateIrIndexer
    from repro.ir.searcher import CreateIrSearcher
    from repro.testing.cohort_oracle import BruteForceCohortEvaluator

    indexer = CreateIrIndexer()
    app = CreateApplication(
        store=DocumentStore(),
        indexer=indexer,
        searcher=CreateIrSearcher(indexer),
    )
    oracle = BruteForceCohortEvaluator()
    for report in reports:
        document = report.to_document()
        app.register_report(document, annotations=report.annotations)
        oracle.add_report(
            report.report_id, report.title, document, report.annotations
        )
    return app, app.cohorts, oracle


def check_cohort_case(case: dict) -> str | None:
    try:
        categories = list(case["categories"])
        if not categories or any(
            c not in CORPUS_CATEGORIES for c in categories
        ):
            return None  # malformed (post-shrink) case: vacuous
        definition = CohortDefinition.from_json(
            {
                "name": "fuzz",
                "inclusion": case["inclusion"],
                "exclusion": case["exclusion"],
            }
        )
        deletes = list(case.get("deletes", []))
        if any(
            not isinstance(i, int) or not 0 <= i < len(categories)
            for i in deletes
        ) or len(set(deletes)) != len(deletes):
            return None
    except (CohortError, KeyError, TypeError):
        return None  # malformed (post-shrink) case: vacuous

    reports = _generate_corpus(case["corpus_seed"], categories)
    app, engine, oracle = _build_stack(reports)

    # 1. Differential: composed engine vs brute-force oracle.
    result = engine.evaluate(definition)
    expected = oracle.evaluate(definition)
    if result.members != expected:
        return (
            f"membership diverged: engine {result.members!r}, "
            f"oracle {expected!r}"
        )
    for criterion in list(definition.inclusion) + list(definition.exclusion):
        got, backend = engine.candidates(criterion)
        want = oracle.candidates(criterion)
        if got != want:
            return (
                f"candidates diverged for {criterion.to_json()!r} "
                f"({backend}): engine {sorted(got)!r}, "
                f"oracle {sorted(want)!r}"
            )

    # 2. Permutation invariance: reordering criteria reorders the
    # short-circuit plan but must not change membership.
    perm = random.Random(case["permutation_seed"])
    shuffled = CohortDefinition(
        name=definition.name,
        inclusion=perm.sample(
            definition.inclusion, len(definition.inclusion)
        ),
        exclusion=perm.sample(
            definition.exclusion, len(definition.exclusion)
        ),
    )
    permuted = engine.evaluate(shuffled)
    if permuted.members != result.members:
        return (
            f"criterion permutation changed membership: "
            f"{result.members!r} -> {permuted.members!r}"
        )

    # 3. Delete metamorphic: per-report predicates mean deleting
    # reports removes exactly those members.
    if deletes:
        deleted_ids = {reports[i].report_id for i in deletes}
        for doc_id in sorted(deleted_ids):
            response = app.handle("DELETE", f"/reports/{doc_id}")
            if not response.ok:
                return f"delete {doc_id} failed: {response.body!r}"
            oracle.remove_report(doc_id)
        after = engine.evaluate(definition)
        survivors = [m for m in result.members if m not in deleted_ids]
        if after.members != survivors:
            return (
                f"delete metamorphic violated: expected {survivors!r}, "
                f"engine {after.members!r}"
            )
        if after.members != oracle.evaluate(definition):
            return "post-delete membership diverged from oracle"
    return None
