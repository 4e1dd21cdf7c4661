"""The CREATe application: endpoints over the assembled subsystems.

Routes (method, path template):

* ``POST /submissions``          — submit a publication (SimPDF or TEI
  XML); runs the Grobid service, extraction, and indexing.
* ``GET  /reports``              — list reports (``category``, ``skip``,
  ``limit`` params).
* ``GET  /reports/{id}``         — one report's stored document.
* ``GET  /reports/{id}/graph``   — its knowledge graph as JSON.
* ``GET  /reports/{id}/svg``     — its Figure-7 SVG visualization.
* ``GET  /reports/{id}/timeline``— its timeline SVG.
* ``GET  /reports/{id}/ann``     — its annotations in BRAT format.
* ``PUT  /reports/{id}/ann``     — replace annotations (validated) and
  re-index the report from them.
* ``GET  /search``               — CREATe-IR search (``q``, ``size``).
* ``GET  /stats``                — corpus statistics (Figure 1 data).
* ``GET  /review/queue``         — undecided claims (``skip``, ``limit``,
  ``doc_id`` params).
* ``GET  /review/claims/{id}``   — one claim with its decisions.
* ``POST /review/claims/{id}/decision`` — record a reviewer verdict.
* ``GET  /review/reports/{id}``  — HTML evidence view with decision
  anchors.
* ``GET  /review/agreement``     — inter-reviewer agreement over
  doubly-reviewed claims.

Query parameters are validated by :func:`_int_param` and
:func:`_text_param`: non-integers, negatives and non-string ``q``
return 400, never 500.  A request whose path, parameters or body hold
a surrogate code point is answered 400 before routing: UTF-8 cannot
encode one, so neither the WAL nor any export could carry it.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.annotation.brat import parse_ann, serialize_ann
from repro.annotation.model import AnnotationDocument
from repro.cohort.engine import CohortEngine
from repro.cohort.fhir import cohort_bundle
from repro.cohort.model import CohortDefinition
from repro.docstore.store import DocumentStore, sort_key
from repro.exceptions import (
    AnnotationError,
    ApiError,
    DuplicateKeyError,
    ParseError,
    ReproError,
)
from repro.grobid.service import GrobidService
from repro.ir.indexer import CreateIrIndexer
from repro.ir.searcher import CreateIrSearcher
from repro.review.queue import ReviewQueue
from repro.schema.validation import SchemaValidator
from repro.temporal.graph import TemporalGraph
from repro.temporal.relations import THREE_WAY_ALGEBRA
from repro.viz.svg import GraphStyle, render_graph_svg
from repro.viz.timeline import render_timeline_svg

if TYPE_CHECKING:  # pragma: no cover
    from repro.durability import DurabilityManager
    from repro.runtime.metrics import MetricsRegistry


def _int_param(params: dict, name: str, default: int) -> int:
    """A non-negative integer query parameter, or 400.

    ``int()`` on raw query input raises bare ``ValueError``/``TypeError``
    (``OverflowError`` for an infinite float) which the dispatcher would
    surface as a 500; this helper turns both malformed and negative
    values into a client-visible 400.
    """
    raw = params.get(name, default)
    try:
        value = int(raw)
    except (TypeError, ValueError, OverflowError):
        raise ApiError(
            400, f"{name} must be an integer, got {raw!r}"
        ) from None
    if value < 0:
        raise ApiError(400, f"{name} must be non-negative, got {value}")
    return value


def _text_param(params: dict, name: str) -> str:
    """A required, non-empty string query parameter, or 400."""
    raw = params.get(name, "")
    if not isinstance(raw, str):
        raise ApiError(400, f"{name} must be a string, got {raw!r}")
    if not raw:
        raise ApiError(400, f"missing query parameter {name}")
    return raw


_SURROGATE = re.compile("[\ud800-\udfff]")


def _holds_surrogate(*values: Any) -> bool:
    """Whether any string in ``values`` (walked through dicts, lists and
    tuples, keys included) holds a surrogate code point."""
    stack = list(values)
    while stack:
        value = stack.pop()
        if isinstance(value, str):
            if not value.isascii() and _SURROGATE.search(value):
                return True
        elif isinstance(value, dict):
            stack.extend(value.keys())
            stack.extend(value.values())
        elif isinstance(value, (list, tuple)):
            stack.extend(value)
    return False


def _opt_int_field(body: dict, name: str) -> int | None:
    """An optional integer body field, or 400."""
    raw = body.get(name)
    if raw is None:
        return None
    try:
        return int(raw)
    except (TypeError, ValueError, OverflowError):
        raise ApiError(
            400, f"{name} must be an integer, got {raw!r}"
        ) from None


@dataclass
class Response:
    """HTTP-like response envelope."""

    status: int
    body: Any

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


@dataclass
class CreateApplication:
    """The assembled application.

    Args:
        store: document store holding report metadata + text.
        indexer: populated dual index.
        searcher: the CREATe-IR searcher over ``indexer``.
        grobid: publication parsing service.
        extractor: optional callable ``(doc_id, text) ->
            AnnotationDocument`` running NER + temporal extraction on
            submissions (submissions index keyword-only when absent).
        metrics: optional runtime metrics registry; when present,
            ``/stats`` serves its counter/timer snapshot.
        runtime_stats: optional callable returning pipeline run
            counters (dead letters, failures) for ``/stats``.
        durability: optional WAL manager; when present, every
            request that is not a ``GET`` seals its journaled ops into
            one commit record (:meth:`handle` commits, the handlers do
            not), and ``/stats`` serves WAL/recovery health.
        review: the durable review queue, and the one owner of every
            report's annotation document: registered reports with
            annotations are enrolled automatically, ``/review`` routes
            serve it, and ``/ann``, ``/html``, cohort criteria and the
            FHIR export read :meth:`ReviewQueue.annotations` — the
            application keeps no per-report state of its own.  The
            graph and keyword index are derived from it and the
            docstore (:meth:`derive_report`).
    """

    store: DocumentStore
    indexer: CreateIrIndexer
    searcher: CreateIrSearcher
    grobid: GrobidService = field(default_factory=GrobidService)
    extractor: Callable[[str, str], AnnotationDocument] | None = None
    validator: SchemaValidator = field(default_factory=SchemaValidator)
    metrics: "MetricsRegistry | None" = None
    runtime_stats: Callable[[], dict] | None = None
    durability: "DurabilityManager | None" = None
    review: ReviewQueue = field(default_factory=ReviewQueue)

    def __post_init__(self) -> None:
        self._routes = [
            ("POST", re.compile(r"^/submissions$"), self._post_submission),
            ("GET", re.compile(r"^/reports$"), self._list_reports),
            ("GET", re.compile(r"^/reports/(?P<doc_id>[^/]+)$"), self._get_report),
            ("GET", re.compile(r"^/reports/(?P<doc_id>[^/]+)/graph$"), self._get_graph),
            ("GET", re.compile(r"^/reports/(?P<doc_id>[^/]+)/svg$"), self._get_svg),
            ("GET", re.compile(r"^/reports/(?P<doc_id>[^/]+)/timeline$"), self._get_timeline),
            ("GET", re.compile(r"^/reports/(?P<doc_id>[^/]+)/ann$"), self._get_ann),
            ("PUT", re.compile(r"^/reports/(?P<doc_id>[^/]+)/ann$"), self._put_ann),
            ("DELETE", re.compile(r"^/reports/(?P<doc_id>[^/]+)$"), self._delete_report),
            ("GET", re.compile(r"^/reports/(?P<doc_id>[^/]+)/html$"), self._get_html),
            ("GET", re.compile(r"^/search$"), self._search),
            ("GET", re.compile(r"^/suggest$"), self._suggest),
            ("GET", re.compile(r"^/stats$"), self._stats),
            ("GET", re.compile(r"^/categories$"), self._categories),
            ("POST", re.compile(r"^/cohorts$"), self._post_cohort),
            ("GET", re.compile(r"^/cohorts$"), self._list_cohorts),
            ("GET", re.compile(r"^/cohorts/(?P<name>[^/]+)$"), self._get_cohort),
            ("DELETE", re.compile(r"^/cohorts/(?P<name>[^/]+)$"), self._delete_cohort),
            ("POST", re.compile(r"^/cohorts/(?P<name>[^/]+)/evaluate$"), self._evaluate_cohort),
            ("GET", re.compile(r"^/cohorts/(?P<name>[^/]+)/fhir$"), self._export_cohort_fhir),
            ("GET", re.compile(r"^/review/queue$"), self._review_queue),
            ("GET", re.compile(r"^/review/claims/(?P<claim_id>[^/]+)$"), self._review_claim),
            ("POST", re.compile(r"^/review/claims/(?P<claim_id>[^/]+)/decision$"), self._review_decide),
            ("GET", re.compile(r"^/review/reports/(?P<doc_id>[^/]+)$"), self._review_report),
            ("GET", re.compile(r"^/review/agreement$"), self._review_agreement),
        ]
        self._suggester = None
        self.cohorts = CohortEngine(
            self.store,
            self.indexer.graph,
            self.indexer.engine,
            self.review.annotations,
        )

    # -- dispatch ------------------------------------------------------------

    def handle(
        self,
        method: str,
        path: str,
        body: Any = None,
        params: dict | None = None,
    ) -> Response:
        """Route a request; never raises (errors map to status codes).

        Every request that is not a ``GET`` ends with one durability
        commit, whether its handler returned or raised: whatever the
        handler journaled is sealed before the response acknowledges
        it, and a handler that failed half-way leaves the log matching
        memory.  A request that journaled nothing commits nothing.

        A surrogate code point anywhere in the path, the parameters or
        the body is refused with 400 before routing, so no handler
        applies a write its WAL record could not encode.
        """
        params = params or {}
        method = method.upper()
        if _holds_surrogate(path, params, body):
            return Response(
                400, {"error": "request holds a surrogate code point"}
            )
        for route_method, pattern, handler in self._routes:
            if route_method != method:
                continue
            match = pattern.match(path)
            if match is None:
                continue
            try:
                try:
                    return handler(
                        body=body, params=params, **match.groupdict()
                    )
                finally:
                    if method != "GET" and self.durability is not None:
                        self.durability.commit()
            except ApiError as exc:
                return Response(exc.status, {"error": exc.message})
            except ReproError as exc:
                return Response(400, {"error": str(exc)})
        return Response(404, {"error": f"no route for {method} {path}"})

    # -- registration used by the pipeline ------------------------------------

    def register_report(
        self,
        document: dict,
        annotations: AnnotationDocument | None = None,
    ) -> str:
        """Store an already-extracted report and index it.

        Returns the stored ``_id``.

        Enrollment comes first because it validates before it mutates:
        annotations the review queue refuses raise with no store
        touched.  Then the docstore insert, then :meth:`derive_report`.
        With a durability manager, the enrollment and the insert land
        in one WAL commit record, so recovery restores the whole report
        or none of it.
        """
        reports = self.store.collection("reports")
        doc_id = document.get("_id")
        if doc_id is None:
            doc_id = reports.next_id()
        elif reports.get(doc_id) is not None:
            raise DuplicateKeyError(f"reports: duplicate _id {doc_id!r}")
        try:
            if annotations is not None:
                self.review.enqueue_document(doc_id, annotations)
            # Enrollment touched no docstore state, so the insert
            # assigns the id next_id() returned.
            reports.insert_one(document)
            self.derive_report(reports.get(doc_id))
        finally:
            if self.durability is not None:
                self.durability.commit()
        return doc_id

    def derive_report(self, document: dict) -> None:
        """Index one stored report into the graph and keyword index.

        The graph nodes, edges and keyword entry are a function of the
        docstore record and the report's enrolled annotation document;
        a report without one is indexed keyword-only, from its stored
        text.  Neither index journals: recovery restores the docstore
        and the review queue and calls this once per report.
        """
        doc_id = document["_id"]
        annotations = self.review.annotations(doc_id)
        if annotations is None:
            self.indexer.engine.index(doc_id, document.get("text", ""))
        else:
            self.indexer.index_annotation_document(doc_id, annotations)
        self._suggester = None  # vocabulary changed

    # -- handlers ------------------------------------------------------------------

    def _post_submission(self, body: Any, params: dict) -> Response:
        if not isinstance(body, str) or not body.strip():
            raise ApiError(400, "submission body must be document content")
        try:
            publication = self.grobid.process(body)
        except ParseError as exc:
            raise ApiError(422, f"could not parse submission: {exc}") from exc
        text = publication.body_text()
        document = {
            "title": publication.metadata.title,
            "authors": publication.metadata.authors,
            "affiliations": publication.metadata.affiliations,
            "abstract": publication.metadata.abstract,
            "text": text,
            "source": "user-submission",
        }
        annotations = None
        if self.extractor is not None:
            doc_id_hint = f"sub-{len(self.store.collection('reports')) + 1}"
            annotations = self.extractor(doc_id_hint, text)
        doc_id = self.register_report(document, annotations)
        return Response(
            201,
            {
                "id": doc_id,
                "title": publication.metadata.title,
                "authors": publication.metadata.authors,
                "n_sections": len(publication.sections),
                "extracted": annotations is not None,
            },
        )

    def _list_reports(self, body: Any, params: dict) -> Response:
        category = (
            _text_param(params, "category") if "category" in params else None
        )
        reports = self.store.collection("reports").find(
            lambda doc: category is None or doc.get("category") == category,
            skip=_int_param(params, "skip", 0),
            limit=_int_param(params, "limit", 20),
            projection=["title", "category", "year", "journal"],
        )
        return Response(200, {"reports": reports})

    def _get_report(self, body: Any, params: dict, doc_id: str) -> Response:
        document = self.store.collection("reports").get(doc_id)
        if document is None:
            raise ApiError(404, f"unknown report {doc_id}")
        return Response(200, document)

    def _get_graph(self, body: Any, params: dict, doc_id: str) -> Response:
        self._require_report(doc_id)
        nodes = [
            {"nodeId": node.node_id, **node.properties}
            for node in self.indexer.graph.find_nodes(doc_id=doc_id)
        ]
        node_ids = {node["nodeId"] for node in nodes}
        edges = [
            {
                "source": edge.source,
                "target": edge.target,
                "label": edge.label,
                "inferred": bool(edge.get("inferred", False)),
            }
            for edge in self.indexer.graph.edges()
            if edge.source in node_ids
        ]
        return Response(200, {"nodes": nodes, "edges": edges})

    def _get_svg(self, body: Any, params: dict, doc_id: str) -> Response:
        self._require_report(doc_id)
        svg = render_graph_svg(
            self.indexer.graph,
            GraphStyle(),
            node_filter=lambda node: node.get("doc_id") == doc_id,
        )
        return Response(200, svg)

    def _get_timeline(self, body: Any, params: dict, doc_id: str) -> Response:
        self._require_report(doc_id)
        graph = TemporalGraph(algebra=THREE_WAY_ALGEBRA)
        labels = {}
        for node in self.indexer.graph.find_nodes(doc_id=doc_id):
            labels[node.node_id] = str(node.get("label", node.node_id))
            for edge in self.indexer.graph.out_edges(node.node_id):
                if edge.label in ("BEFORE", "OVERLAP"):
                    try:
                        graph.add(edge.source, edge.target, edge.label)
                    except ReproError:
                        continue
        return Response(200, render_timeline_svg(graph, labels))

    def _get_ann(self, body: Any, params: dict, doc_id: str) -> Response:
        return Response(200, serialize_ann(self._require_ann(doc_id)))

    def _put_ann(self, body: Any, params: dict, doc_id: str) -> Response:
        document = self._require_report(doc_id)
        if not isinstance(body, str):
            raise ApiError(400, "annotation body must be .ann content")
        try:
            annotations = parse_ann(doc_id, document.get("text", ""), body)
        except AnnotationError as exc:
            raise ApiError(422, f"bad annotations: {exc}") from exc
        issues = self.validator.validate(annotations)
        if issues:
            return Response(
                422,
                {
                    "error": "schema violations",
                    "issues": [
                        {"ann_id": issue.ann_id, "code": issue.code}
                        for issue in issues
                    ],
                },
            )
        self.review.drop_document(doc_id)
        self.review.enqueue_document(doc_id, annotations)
        self.indexer.delete_report(doc_id)
        self.derive_report(document)
        return Response(200, {"id": doc_id, "spans": len(annotations.textbounds)})

    def _delete_report(self, body: Any, params: dict, doc_id: str) -> Response:
        self._require_report(doc_id)
        self.store.collection("reports").delete_one(doc_id)
        self.indexer.delete_report(doc_id)
        self.review.drop_document(doc_id)
        self._suggester = None  # vocabulary changed
        return Response(200, {"deleted": doc_id})

    def _search(self, body: Any, params: dict) -> Response:
        query = _text_param(params, "q")
        size = _int_param(params, "size", 10)
        want_highlight = str(params.get("highlight", "")).lower() in (
            "1",
            "true",
            "yes",
        )
        results = self.searcher.search(query, size=size)
        rows = []
        for result in results:
            row = {
                "id": result.doc_id,
                "score": result.score,
                "engine": result.engine,
            }
            if want_highlight:
                row["highlights"] = self.indexer.engine.highlight(
                    result.doc_id, query
                )
            rows.append(row)
        return Response(200, {"query": query, "results": rows})

    def _stats(self, body: Any, params: dict) -> Response:
        counts = self._category_counts()
        payload = {
            "n_reports": len(self.store.collection("reports")),
            "by_category": dict(
                sorted(counts.items(), key=lambda item: sort_key(item[0]))
            ),
            "graph_nodes": self.indexer.graph.n_nodes,
            "graph_edges": self.indexer.graph.n_edges,
            "indexer": self.indexer.stats(),
            "planner": self.indexer.graph.planner_stats(),
        }
        if self.runtime_stats is not None:
            payload["pipeline"] = self.runtime_stats()
        if self.metrics is not None:
            payload["metrics"] = self.metrics.snapshot()
        if self.durability is not None:
            payload["durability"] = self.durability.stats()
        payload["cohort"] = self.cohorts.stats()
        payload["review"] = self.review.stats()
        return Response(200, payload)

    def _get_html(self, body: Any, params: dict, doc_id: str) -> Response:
        from repro.viz.report_html import render_report_html

        document = self._require_report(doc_id)
        html = render_report_html(
            self._require_ann(doc_id),
            title=document.get("title", ""),
            metadata={
                key: document[key]
                for key in ("authors", "journal", "year", "category")
                if document.get(key)
            },
        )
        return Response(200, html)

    def _suggest(self, body: Any, params: dict) -> Response:
        from repro.search.suggest import QuerySuggester

        prefix = _text_param(params, "q")
        if self._suggester is None:
            suggester = QuerySuggester()
            suggester.add_from_graph(self.indexer.graph)
            suggester.add_from_ontology(self.indexer.normalizer.ontology)
            self._suggester = suggester
        limit = _int_param(params, "size", 8)
        return Response(
            200,
            {
                "suggestions": [
                    {"text": s.text, "weight": s.weight, "source": s.source}
                    for s in self._suggester.suggest(prefix, limit=limit)
                ]
            },
        )

    def _categories(self, body: Any, params: dict) -> Response:
        """The Figure 1 data: per-category counts and shares, most
        frequent first."""
        counts = self._category_counts()
        total = sum(counts.values()) or 1
        rows = sorted(
            counts.items(), key=lambda item: (-item[1], sort_key(item[0]))
        )
        return Response(
            200,
            {
                "categories": [
                    {
                        "category": category,
                        "count": count,
                        "share": count / total,
                    }
                    for category, count in rows
                ]
            },
        )

    def _category_counts(self) -> Counter:
        """Reports per ``category`` value, over reports that have one."""
        return Counter(
            doc["category"]
            for doc in self.store.collection("reports").find(
                lambda doc: "category" in doc, projection=["category"]
            )
        )

    # -- cohorts -------------------------------------------------------------

    def _post_cohort(self, body: Any, params: dict) -> Response:
        """Define (or replace) a named cohort; the definition is
        validated and persisted in the docstore."""
        definition = CohortDefinition.from_json(body)
        cohorts = self.store.collection("cohorts")
        cohorts.delete_one(definition.name)
        cohorts.insert_one({"_id": definition.name, **definition.to_json()})
        return Response(201, definition.to_json())

    def _list_cohorts(self, body: Any, params: dict) -> Response:
        rows = self.store.collection("cohorts").find(
            projection=["name", "description"]
        )
        return Response(200, {"cohorts": rows})

    def _get_cohort(self, body: Any, params: dict, name: str) -> Response:
        return Response(200, self._require_cohort(name).to_json())

    def _delete_cohort(self, body: Any, params: dict, name: str) -> Response:
        self._require_cohort(name)
        self.store.collection("cohorts").delete_one(name)
        return Response(200, {"deleted": name})

    def _evaluate_cohort(
        self, body: Any, params: dict, name: str
    ) -> Response:
        """Evaluate a cohort; ``skip``/``limit`` paginate the member
        list while ``size`` always reports the full cohort."""
        definition = self._require_cohort(name)
        result = self.cohorts.evaluate(definition)
        skip = _int_param(params, "skip", 0)
        limit = _int_param(params, "limit", 50)
        payload = result.as_dict()
        payload["members"] = result.members[skip : skip + limit]
        payload["skip"] = skip
        payload["limit"] = limit
        return Response(200, payload)

    def _export_cohort_fhir(
        self, body: Any, params: dict, name: str
    ) -> Response:
        """The cohort as a FHIR-style Bundle with span provenance."""
        definition = self._require_cohort(name)
        result = self.cohorts.evaluate(definition)
        bundle = cohort_bundle(
            name, result.members, self.review.annotations
        )
        return Response(200, bundle)

    def _require_cohort(self, name: str) -> CohortDefinition:
        stored = self.store.collection("cohorts").get(name)
        if stored is None:
            raise ApiError(404, f"unknown cohort {name}")
        return CohortDefinition.from_json(
            {key: value for key, value in stored.items() if key != "_id"}
        )

    def _require_report(self, doc_id: str) -> dict:
        document = self.store.collection("reports").get(doc_id)
        if document is None:
            raise ApiError(404, f"unknown report {doc_id}")
        return document

    def _require_ann(self, doc_id: str) -> AnnotationDocument:
        annotations = self.review.annotations(doc_id)
        if annotations is None:
            raise ApiError(404, f"no annotations for {doc_id}")
        return annotations

    # -- review --------------------------------------------------------------

    @staticmethod
    def _claim_payload(claim, decisions) -> dict:
        return {
            "claim": claim.to_json(),
            "status": "decided" if decisions else "queued",
            "decisions": [decision.to_json() for decision in decisions],
        }

    def _review_queue(self, body: Any, params: dict) -> Response:
        """Undecided claims in queue order, paginated."""
        skip = _int_param(params, "skip", 0)
        limit = _int_param(params, "limit", 20)
        queued = self.review.queued(doc_id=params.get("doc_id"))
        return Response(
            200,
            {
                "total": len(queued),
                "skip": skip,
                "limit": limit,
                "claims": [
                    claim.to_json()
                    for claim in queued[skip : skip + limit]
                ],
            },
        )

    def _review_claim(self, body: Any, params: dict, claim_id: str) -> Response:
        claim = self.review.claim(claim_id)
        if claim is None:
            raise ApiError(404, f"unknown claim {claim_id}")
        return Response(
            200,
            self._claim_payload(claim, self.review.decisions_of(claim_id)),
        )

    def _review_decide(self, body: Any, params: dict, claim_id: str) -> Response:
        """Record one reviewer's verdict; the decision is journaled and
        committed through the WAL before the response acknowledges it."""
        if self.review.claim(claim_id) is None:
            raise ApiError(404, f"unknown claim {claim_id}")
        if not isinstance(body, dict):
            raise ApiError(400, "decision body must be a JSON object")
        decision = self.review.decide(
            claim_id,
            reviewer=str(body.get("reviewer", "")),
            verdict=str(body.get("verdict", "")),
            label=(
                None if body.get("label") is None else str(body["label"])
            ),
            start=_opt_int_field(body, "start"),
            end=_opt_int_field(body, "end"),
            note=str(body.get("note", "")),
        )
        return Response(
            201,
            {
                "decision": decision.to_json(),
                "queue_depth": self.review.stats()["queue_depth"],
            },
        )

    def _review_report(self, body: Any, params: dict, doc_id: str) -> Response:
        """The HTML evidence view: highlighted spans with per-claim
        decision anchors."""
        from repro.review.html import render_review_html

        if self.review.annotations(doc_id) is None:
            raise ApiError(404, f"report {doc_id} is not under review")
        return Response(200, render_review_html(self.review, doc_id))

    def _review_agreement(self, body: Any, params: dict) -> Response:
        pair = self.review.pair_agreement()
        if pair is None:
            return Response(200, {"doubly_reviewed": 0})
        return Response(
            200,
            {
                "doubly_reviewed": self.review.stats()["double_reviewed"],
                "reviewer_a": pair.reviewer_a,
                "reviewer_b": pair.reviewer_b,
                "n_claims": pair.n_claims,
                "verdict_kappa": pair.verdict_kappa,
                "span_f1": pair.report.span_f1.f1,
                "token_kappa": pair.report.token_kappa,
                "relation_f1": pair.report.relation_f1.f1,
                "n_documents": pair.report.n_documents,
            },
        )
