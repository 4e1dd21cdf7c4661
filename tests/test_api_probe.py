"""Hostile-input probe: every route x malformed bodies x malformed params.

``CreateApplication.handle`` documents "never raises".  This walks the
application's own route table, so a new route is probed the day it is
added: whatever the body and query parameters, the answer is a status
below 500 and no exception escapes the dispatcher.
"""

import itertools
import re

import pytest

from repro.api.app import CreateApplication
from repro.corpus.generator import CaseReportGenerator
from repro.docstore.store import DocumentStore
from repro.ir.indexer import CreateIrIndexer
from repro.ir.searcher import CreateIrSearcher

BODIES = [
    None,
    "",
    "garbage",
    0,
    5,
    True,
    [],
    ["a"],
    {},
    {"q": 5},
    {"name": 5},
    {"name": "x", "inclusion": "nope"},
    {"reviewer": "r", "verdict": "edit", "start": "x"},
    {"reviewer": 5, "verdict": []},
    b"bytes",
    float("inf"),
    "<?xml",
    "<TEI>\ud800</TEI>",
]

PARAMS = [
    {},
    {"q": 5},
    {"q": ["a"]},
    {"q": None},
    {"q": "fever"},
    {"q": "\x00"},
    {"q": "fever", "size": "x"},
    {"q": "fever", "size": -1},
    {"q": "fever", "size": float("nan")},
    {"q": "fever", "highlight": 5},
    {"skip": [1]},
    {"limit": float("inf")},
    {"limit": 1e99},
    {"category": ["a"]},
    {"category": {"$ne": None}},
    {"doc_id": 5},
    {"reviewer": {}},
]


def _bare_app() -> CreateApplication:
    indexer = CreateIrIndexer()
    return CreateApplication(
        store=DocumentStore(),
        indexer=indexer,
        searcher=CreateIrSearcher(indexer),
    )


_VARIABLE = re.compile(r"\(\?P<(\w+)>[^)]*\)")

# (method, path template with ``{variable}`` placeholders)
ROUTES = [
    (method, _VARIABLE.sub(r"{\1}", pattern.pattern.strip("^$")))
    for method, pattern, _ in _bare_app()._routes
]

# One known and one unknown value per path variable.
IDS = {
    "doc_id": ("r000", "zzz"),
    "name": ("c1", "zzz"),
    "claim_id": ("r000:T1", "zzz"),
}


@pytest.fixture(scope="module")
def reports():
    generator = CaseReportGenerator(seed=5)
    return [generator.generate(f"r{i:03d}") for i in range(3)]


def _populated_app(reports) -> CreateApplication:
    app = _bare_app()
    for report in reports:
        app.register_report(
            report.to_document(), annotations=report.annotations
        )
    created = app.handle(
        "POST",
        "/cohorts",
        body={"name": "c1", "inclusion": [{"kind": "text", "query": "fever"}]},
    )
    assert created.ok, created.body
    return app


@pytest.mark.parametrize(
    "method, template, id_index",
    [
        (method, template, id_index)
        for method, template in ROUTES
        for id_index in ((0, 1) if "{" in template else (0,))
    ],
    ids=lambda value: {0: "known", 1: "unknown"}.get(value, value),
)
def test_no_input_escapes_handle_or_answers_5xx(
    method, template, id_index, reports
):
    # A fresh application per route: DELETE and PUT probes must not
    # turn the later routes' known ids into unknown ones.
    app = _populated_app(reports)
    path = template.format(
        **{name: values[id_index] for name, values in IDS.items()}
    )
    for body, params in itertools.product(BODIES, PARAMS):
        try:
            response = app.handle(method, path, body=body, params=params)
        except Exception as exc:  # the contract under test
            pytest.fail(
                f"{method} {path} body={body!r} params={params!r} "
                f"escaped handle: {type(exc).__name__}: {exc}"
            )
        assert response.status < 500, (method, path, body, params)


def test_route_table_is_fully_probed():
    assert len(ROUTES) >= 25
    variables = {
        name
        for _, template in ROUTES
        for name in re.findall(r"{(\w+)}", template)
    }
    assert variables == set(IDS)


# Cohort bodies that parse into a criterion the engine cannot evaluate:
# a non-string mention field or a non-string graph edge label.
MALFORMED_COHORTS = [
    {"kind": "entity", "value": 5},
    {"kind": "entity", "entity_type": ["Sign_symptom"]},
    {
        "kind": "temporal",
        "relation": "BEFORE",
        "a": {"value": 7},
        "b": {"entity_type": "Sign_symptom"},
    },
    {
        "kind": "temporal",
        "relation": "AFTER",
        "a": {"entity_type": "Sign_symptom"},
        "b": {"entity_type": {"x": 1}},
    },
    {
        "kind": "graph",
        "nodes": [["a", {"entityType": "Sign_symptom"}], ["b", {}]],
        "edges": [["a", "b", {"x": 1}, True]],
    },
]


@pytest.mark.parametrize(
    "criterion",
    MALFORMED_COHORTS,
    ids=[
        "entity-value-int",
        "entity-type-list",
        "temporal-value-int",
        "temporal-type-dict",
        "graph-edge-label-dict",
    ],
)
def test_malformed_cohort_is_refused_not_evaluated(criterion, reports):
    app = _populated_app(reports)
    calls = [
        ("POST", "/cohorts", {"name": "bad", "inclusion": [criterion]}),
        ("POST", "/cohorts/bad/evaluate", None),
        ("GET", "/cohorts/bad/fhir", None),
    ]
    statuses = []
    for method, path, body in calls:
        try:
            response = app.handle(method, path, body=body)
        except Exception as exc:  # the contract under test
            pytest.fail(
                f"{method} {path} escaped handle: {type(exc).__name__}: {exc}"
            )
        statuses.append(response.status)
    assert statuses == [400, 404, 404]
    # A bad definition persisted before validation existed answers 400.
    app.store.collection("cohorts").insert_one(
        {"_id": "stored", "name": "stored", "inclusion": [criterion]}
    )
    for method, path in (
        ("POST", "/cohorts/stored/evaluate"),
        ("GET", "/cohorts/stored/fhir"),
    ):
        assert app.handle(method, path).status == 400
