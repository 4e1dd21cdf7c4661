"""Hostile-input probe: every route x malformed bodies x malformed params.

``CreateApplication.handle`` documents "never raises".  This walks the
application's own route table, so a new route is probed the day it is
added: whatever the body and query parameters, the answer is a status
below 500 and no exception escapes the dispatcher.

Each probe also goes to a durable twin over a ``MemFS``: after every
request, what recovery rebuilds from its log must equal what the live
application holds (nothing is visible that the log does not hold).
"""

import copy
import itertools
import re

import pytest

from repro.api.app import CreateApplication
from repro.corpus.generator import CaseReportGenerator
from repro.docstore.store import Collection, DocumentStore
from repro.durability import DurabilityManager, MemFS
from repro.durability.wal import WAL_NAME
from repro.ir.indexer import CreateIrIndexer
from repro.ir.searcher import CreateIrSearcher
from repro.review.queue import ReviewQueue

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
    {"name": "x\ud800", "inclusion": []},
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
    {"q": "fever \ud800"},
]


def _bare_app(durability=None) -> CreateApplication:
    indexer = CreateIrIndexer()
    return CreateApplication(
        store=DocumentStore(),
        indexer=indexer,
        searcher=CreateIrSearcher(indexer),
        durability=durability,
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


def _durable_app() -> CreateApplication:
    manager = DurabilityManager(MemFS())
    app = _bare_app(durability=manager)
    manager.attach("docstore", app.store)
    manager.attach("review", app.review)
    return app


def _journaled_state(store: DocumentStore, review: ReviewQueue) -> dict:
    return {
        "docstore": store.durable_snapshot(),
        "review": review.durable_snapshot(),
    }


class _RecoveredState:
    """What recovery rebuilds from a durable application's log,
    recomputed only when the log has grown since the last look."""

    def __init__(self, app: CreateApplication):
        self.fs = app.durability.fs
        self._wal_size = -1
        self._state = None

    def __call__(self) -> dict:
        size = len(self.fs.read_bytes(WAL_NAME))
        if size != self._wal_size:
            store, review = DocumentStore(), ReviewQueue()
            manager = DurabilityManager(self.fs)
            manager.attach("docstore", store)
            manager.attach("review", review)
            manager.recover()
            self._wal_size = size
            self._state = _journaled_state(store, review)
        return self._state


def _live_state(app: CreateApplication) -> dict:
    return _journaled_state(app.store, app.review)


def _populated_app(reports, durable: bool = False) -> CreateApplication:
    app = _durable_app() if durable else _bare_app()
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
    durable = _populated_app(reports, durable=True)
    recovered = _RecoveredState(durable)
    path = template.format(
        **{name: values[id_index] for name, values in IDS.items()}
    )
    for body, params in itertools.product(BODIES, PARAMS):
        probe = (method, path, body, params)
        try:
            response = app.handle(method, path, body=body, params=params)
            durable_response = durable.handle(
                method, path, body=body, params=params
            )
        except Exception as exc:  # the contract under test
            pytest.fail(
                f"{method} {path} body={body!r} params={params!r} "
                f"escaped handle: {type(exc).__name__}: {exc}"
            )
        assert response.status < 500, probe
        assert durable_response.status == response.status, probe
        if "\\ud800" in repr((body, params)):
            assert response.status == 400, probe
        assert _live_state(durable) == recovered(), probe


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


# A surrogate code point has no UTF-8 encoding, so no WAL record, FHIR
# bundle or TEI document can carry one: ``handle`` refuses it before
# routing.


def test_surrogate_query_is_refused_by_a_parser_backed_search(demo_system):
    pipeline, _ = demo_system
    assert pipeline.app.searcher._parser is not None
    response = pipeline.app.handle(
        "GET", "/search", params={"q": "fever \ud800"}
    )
    assert response.status == 400


def test_refused_surrogate_cohort_is_not_applied_on_a_durable_app():
    manager = DurabilityManager(MemFS())
    app = _bare_app(durability=manager)
    manager.attach("docstore", app.store)
    manager.attach("review", app.review)
    body = {
        "name": "ok",
        "inclusion": [{"kind": "text", "query": "fever \ud800"}],
    }
    assert app.handle("POST", "/cohorts", body=body).status == 400
    assert app.handle("GET", "/cohorts/ok").status == 404
    assert app.handle("GET", "/cohorts").body == {"cohorts": []}


def _insert_applied_before_encoded(self, document):
    """The ordering encode-then-apply replaced: memory first, and the
    op encoded only when the manager seals the journal."""
    stored = copy.deepcopy(document)
    self._documents[stored["_id"]] = stored
    self._log_op({"op": "insert", "c": self.name, "doc": copy.deepcopy(stored)})
    return stored["_id"]


def test_a_record_the_log_cannot_hold_changes_nothing():
    app = _durable_app()
    recovered = _RecoveredState(app)
    cohorts = app.store.collection("cohorts")
    app.durability.commit()
    before = _live_state(app)
    with pytest.raises(TypeError):
        cohorts.insert_one({"_id": "bad", "tags": {"a set"}})
    app.durability.commit()
    assert cohorts.get("bad") is None
    assert _live_state(app) == before == recovered()


def test_apply_before_encode_leaves_memory_ahead_of_the_log(monkeypatch):
    # Planted bug: the docstore applies an insert before anything has
    # encoded it, so the failure surfaces at commit, after the apply.
    monkeypatch.setattr(
        Collection, "insert_one", _insert_applied_before_encoded
    )
    app = _durable_app()
    recovered = _RecoveredState(app)
    cohorts = app.store.collection("cohorts")
    app.durability.commit()
    cohorts.insert_one({"_id": "bad", "tags": {"a set"}})
    with pytest.raises(TypeError):
        app.durability.commit()
    assert cohorts.get("bad") is not None
    assert _live_state(app) != recovered()
