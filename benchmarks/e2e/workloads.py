"""Seeded inputs of the four workloads.

Everything here is a pure function of ``--seed``: the corpus a
repetition ingests, the judged queries, the Zipf draws and the
``curate_mixed`` schedule.  The program under test only ever sees the
generated pages and requests.

Sizes are the issue's targets scaled to the driver's time cap (about
37 s per run, three set-ups in each); names, mixes and ratios are the
issue's.  ``BENCHMARK.json`` and the README record them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.corpus import CaseReportGenerator, build_corpus, make_query_workload
from repro.crawler.repository import SyntheticPubMed

WORKLOADS = ("ingest_bulk", "search_distinct", "search_skewed", "curate_mixed")

REPETITIONS = 3  # fresh set-ups per run; timings are medians over them
BLOCK = 40  # requests between deadline checks and digest checkpoints
MIN_BLOCKS = 4  # run regardless of the deadline

N_TRAIN = 10
TRAIN_SEED = 900
N_REPORTS = 100  # ingested per repetition, timed or as preload
PDF_FRACTION = 0.5
N_READBACK = 3 * BLOCK  # judged queries after a repetition's ingest; ndcg10
INGEST_READBACK = 12 * BLOCK  # ingest_bulk times this many, scores the first 3
READBACK_DRAWS = 400  # make_query_workload draws; ~250 distinct texts
DISTINCT_DRAWS = 2000  # ~800 distinct texts; ingest_bulk's read-back too
HOT_SET = 40
ZIPF_S = 1.1
DRIFT_EVERY = 10  # requests between popularity shifts
DRIFT = 7  # items the ranks move on; coprime with HOT_SET
SKEWED_LENGTH = 3000
CURATE_LENGTH = 1500
HELD_OUT = 1_000_003  # corpus-seed offset of the pages curate_mixed submits

# curate_mixed traffic shares; route names double as per-layer metric
# names (api.route.<route>.p50_ms).
CURATE_MIX = (
    ("search", 0.35),
    ("decide", 0.20),
    ("cohort", 0.10),
    ("submit", 0.10),
    ("get", 0.10),
    ("queue", 0.05),
    ("put_ann", 0.05),
    ("delete", 0.05),
)
ROUTES = tuple(route for route, _share in CURATE_MIX)
# The shortest slot sequence with exactly these shares.  The schedule is
# a run of seeded shuffles of it, so every block of requests has the
# same mix and ops_per_s does not depend on how the draws fell.
MIX_UNIT = tuple(
    route for route, share in CURATE_MIX for _ in range(round(share * 20))
)
ACCEPT_SHARE = 0.8

# One cohort per criterion family the engine compiles differently.
# ``source`` is the one metadata field ingested reports carry.
COHORTS = (
    {
        "name": "temporal_entity",
        "inclusion": [
            {
                "kind": "temporal",
                "relation": "BEFORE",
                "a": {"entity_type": "Sign_symptom"},
                "b": {"entity_type": "Medication"},
            },
            {"kind": "entity", "entity_type": "Disease_disorder"},
        ],
    },
    {
        "name": "text",
        "inclusion": [{"kind": "text", "query": "chest pain fever"}],
    },
    {
        "name": "value_negated",
        "inclusion": [
            {"kind": "value", "field": "source", "op": "eq", "value": "pdf"}
        ],
        "exclusion": [
            {"kind": "entity", "entity_type": "Sign_symptom", "negated": True}
        ],
    },
    {
        "name": "graph",
        "inclusion": [
            {
                "kind": "graph",
                "nodes": [
                    ["a", {"entityType": "Sign_symptom"}],
                    ["b", {"entityType": "Therapeutic_procedure"}],
                ],
                "edges": [["a", "b", "BEFORE", True]],
            }
        ],
    },
)


@dataclass(slots=True)
class Request:
    """One call of ``CreateApplication.handle`` and the status it must
    return."""

    route: str
    method: str
    path: str
    params: dict | None = None
    body: object = None
    expect: int = 200


def search_request(text: str) -> Request:
    return Request("search", "GET", "/search", {"q": text, "size": 10})


def corpus_seed(seed: int, repetition: int, block: int = 0) -> int:
    """Every ingest of every repetition of every seed gets its own
    corpus, so nothing the program might keep between pipelines in one
    process can be reused."""
    return (seed * REPETITIONS + repetition) * 64 + block


def train_reports():
    generator = CaseReportGenerator(seed=TRAIN_SEED)
    return [
        generator.generate(f"train-{i:04d}", "cardiovascular")
        for i in range(N_TRAIN)
    ]


@dataclass
class Corpus:
    """One site to ingest, with what the checks need to know about it."""

    reports: list
    site: SyntheticPubMed
    text_bytes: int
    gold_mentions: dict  # (pmid, label, lower-cased surface) -> count


def make_corpus(cseed: int) -> Corpus:
    reports = build_corpus(N_REPORTS, seed=cseed)
    gold: dict = {}
    for report in reports:
        for span in report.annotations.textbounds.values():
            key = (report.pmid, span.label, span.text.lower())
            gold[key] = gold.get(key, 0) + 1
    return Corpus(
        reports=reports,
        site=SyntheticPubMed(reports, pdf_fraction=PDF_FRACTION, seed=cseed),
        text_bytes=sum(len(r.text.encode("utf-8")) for r in reports),
        gold_mentions=gold,
    )


def judged_queries(corpus: Corpus, cseed: int, draws: int):
    """Distinct query texts in draw order, and each text's gold gains
    keyed by the id the pipeline gives the report (its pmid)."""
    pmid_of = {r.report_id: r.pmid for r in corpus.reports}
    texts: list[str] = []
    gains: dict[str, dict[str, float]] = {}
    for case in make_query_workload(corpus.reports, n_queries=draws, seed=cseed):
        if case.text not in gains:
            texts.append(case.text)
            gains[case.text] = {
                pmid_of[report_id]: float(grade)
                for report_id, grade in case.judgements.items()
            }
    return texts, gains


def zipf_ranks(rng: np.random.Generator, n_items: int, size: int) -> list[int]:
    weights = 1.0 / np.arange(1, n_items + 1) ** ZIPF_S
    return [int(i) for i in rng.choice(n_items, size=size, p=weights / weights.sum())]


def drifting(ranks: list[int], n_items: int) -> list[int]:
    """Item per draw when popularity drifts: every :data:`DRIFT_EVERY`
    draws the Zipf ranks move :data:`DRIFT` items on.  At any moment
    traffic is as skewed as ever and the hot set is as small, so
    requests repeat as often; but every query takes its turn as the
    hottest, so a run's latencies are not those of three arbitrary
    queries that happened to draw the top ranks."""
    return [
        (rank + position // DRIFT_EVERY * DRIFT) % n_items
        for position, rank in enumerate(ranks)
    ]


def curate_schedule(seed: int):
    """``(route, u, item)`` per slot: the route, from seeded shuffles
    of :data:`MIX_UNIT`; a uniform draw that picks the slot's target or
    verdict at run time; and the hot query a search asks."""
    rng = np.random.default_rng(seed)
    routes = [
        MIX_UNIT[int(i)]
        for _ in range(CURATE_LENGTH // len(MIX_UNIT))
        for i in rng.permutation(len(MIX_UNIT))
    ]
    draws = rng.random(len(routes))
    items = drifting(zipf_ranks(rng, HOT_SET, len(routes)), HOT_SET)
    return [(route, float(u), item) for route, u, item in zip(routes, draws, items)]


class ListClient:
    """A fixed request list, issued once in order."""

    def __init__(self, requests: list[Request]):
        self._requests = requests
        self._next = 0

    def next(self) -> Request | None:
        if self._next >= len(self._requests):
            return None
        self._next += 1
        return self._requests[self._next - 1]

    def observe(self, request: Request, response) -> None:
        pass


class CurateClient:
    """The curator / clinician / reviewer of ``curate_mixed``.

    Targets are resolved when a slot comes up, from what the client has
    seen so far: ids of live reports, claim ids from its last look at
    the review queue, its local copies of the annotations it may PUT
    back.  Given the seed and a deterministic system the request
    sequence is fixed.
    """

    def __init__(
        self,
        schedule,
        hot_queries: list[str],
        pages: list[str],
        report_ids: list[str],
        annotations: dict[str, str],
    ):
        self._schedule = schedule
        self._slot = 0
        self._hot = hot_queries
        self._pages = pages
        self._page = 0
        self._live = list(report_ids)
        self._editable = list(report_ids)
        self._annotations = annotations
        self._claims: list[tuple[str, str]] = []

    def next(self) -> Request | None:
        if self._slot >= len(self._schedule):
            return None
        route, u, item = self._schedule[self._slot]
        self._slot += 1
        if route == "search":
            return search_request(self._hot[item % len(self._hot)])
        if route == "cohort":
            name = COHORTS[int(u * len(COHORTS))]["name"]
            return Request("cohort", "POST", f"/cohorts/{name}/evaluate")
        if route == "queue" or (route == "decide" and not self._claims):
            return Request("queue", "GET", "/review/queue")
        if route == "decide":
            claim_id, _doc_id = self._claims.pop(0)
            verdict = "accept" if u < ACCEPT_SHARE else "reject"
            return Request(
                "decide",
                "POST",
                f"/review/claims/{claim_id}/decision",
                body={"reviewer": "reviewer-1", "verdict": verdict},
                expect=201,
            )
        if route == "submit":
            if self._page >= len(self._pages):
                return None
            self._page += 1
            return Request(
                "submit", "POST", "/submissions",
                body=self._pages[self._page - 1], expect=201,
            )
        if route == "put_ann":
            if not self._editable:
                return None
            doc_id = self._editable[int(u * len(self._editable))]
            return Request(
                "put_ann", "PUT", f"/reports/{doc_id}/ann",
                body=self._annotations[doc_id],
            )
        if not self._live:
            return None
        if route == "delete":
            doc_id = self._live[int(u * len(self._live))]
            return Request("delete", "DELETE", f"/reports/{doc_id}")
        view = ("", "/graph", "/html")[int(u * 3)]
        doc_id = self._live[int(u * 3 % 1 * len(self._live))]
        return Request("get", "GET", f"/reports/{doc_id}{view}")

    def observe(self, request: Request, response) -> None:
        if response.status != request.expect:
            return
        if request.route == "queue":
            self._claims = [
                (claim["claim_id"], claim["doc_id"])
                for claim in response.body["claims"]
            ]
        elif request.route == "submit":
            self._live.append(response.body["id"])
        elif request.route == "delete":
            doc_id = response.body["deleted"]
            self._live.remove(doc_id)
            if doc_id in self._editable:
                self._editable.remove(doc_id)
            self._claims = [c for c in self._claims if c[1] != doc_id]


def readback_split(corpus: Corpus, cseed: int, draws: int, n_readback: int):
    """``(read-back requests, remaining texts, gains)``: the judged
    queries a repetition asks right after an ingest — timed in
    ``ingest_bulk``, the warm-up elsewhere; the first
    :data:`N_READBACK` are the source of ``ndcg10`` in all four — and
    the distinct texts left for the measured part."""
    texts, gains = judged_queries(corpus, cseed, draws)
    readback = [search_request(text) for text in texts[:n_readback]]
    return readback, texts[n_readback:], gains


@dataclass
class ServingInputs:
    """What one repetition of a serving workload issues after preload."""

    warmup: list[Request]
    gains: dict[str, dict[str, float]]
    make_client: object  # (report ids, annotations by id) -> client
    probes: list[str]  # searched when two states are compared


def serving_inputs(workload: str, seed: int, repetition: int, corpus: Corpus):
    cseed = corpus_seed(seed, repetition)
    if workload == "search_distinct":
        warmup, texts, gains = readback_split(corpus, cseed, DISTINCT_DRAWS, N_READBACK)
        requests = [search_request(text) for text in texts]
        return ServingInputs(
            warmup, gains, lambda ids, ann: ListClient(requests), texts[:5]
        )

    warmup, texts, gains = readback_split(corpus, cseed, READBACK_DRAWS, N_READBACK)
    hot = texts[:HOT_SET]
    if workload == "search_skewed":
        ranks = zipf_ranks(np.random.default_rng(cseed), len(hot), SKEWED_LENGTH)
        requests = [search_request(hot[i]) for i in drifting(ranks, len(hot))]
        return ServingInputs(
            warmup, gains, lambda ids, ann: ListClient(requests), hot[:5]
        )

    schedule = curate_schedule(cseed)  # curate_mixed
    n_pages = sum(1 for route, _u, _item in schedule if route == "submit")
    held_out = build_corpus(n_pages, seed=cseed + HELD_OUT, prefix="sub")
    held_site = SyntheticPubMed(
        held_out, pdf_fraction=PDF_FRACTION, seed=cseed + HELD_OUT
    )
    pages = [
        held_site.fetch(f"pubmed://article/{report.pmid}").body
        for report in held_out
    ]
    define = [
        Request("define", "POST", "/cohorts", body=dict(cohort), expect=201)
        for cohort in COHORTS
    ]
    return ServingInputs(
        define + warmup,
        gains,
        lambda ids, ann: CurateClient(schedule, hot, pages, ids, ann),
        hot[:5],
    )
