"""Builds the assembled system, drives it, checks it, measures it.

The system is assembled exactly as a deployment would:
``ClinicalExtractor.train`` then ``CreatePipeline(extractor=...,
durability=DurabilityManager(fs))`` with every other argument left at
its default, so a later change of defaults is measured.  It is driven
only through ``ingest_from_site``, ``app.handle`` and ``recover``.
Flush policy: ``group_commit=1``, one fsync per commit, real files
under a scratch directory inside the checkout.

One run is :data:`REPETITIONS` repetitions, each with its own set-up
(train, generate, and for the serving workloads preload and warm up)
and its own share of ``--seconds``; timings are medians over the
repetitions.  Work is cut into blocks: a repetition always runs its
first blocks (the quality metrics and the golden comparison use only
those, so they repeat exactly) and then keeps going until its share of
the time is used.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import resource
import shutil
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from repro.durability import DurabilityManager, OsFileSystem
from repro.ml.metrics import ndcg_at_k
from repro.pipeline import ClinicalExtractor, CreatePipeline

import workloads as wl
from spans import SPAN_TARGETS, Tracer

HERE = Path(__file__).resolve().parent
GOLDEN_DIR = HERE / "golden"
SCRATCH_DIR = HERE / "out"


class CheckFailed(Exception):
    """An output of the program was wrong; the run reports
    ``correct: false``."""


class CountingFs:
    """``OsFileSystem`` with the two counts the benchmark reports:
    bytes appended (only the WAL appends; no snapshot is configured)
    and fsyncs."""

    def __init__(self, inner: OsFileSystem):
        self._inner = inner
        self.appended = 0
        self.fsyncs = 0

    def append(self, name: str, data: bytes) -> None:
        self.appended += len(data)
        self._inner.append(name, data)

    def fsync(self, name: str) -> None:
        self.fsyncs += 1
        self._inner.fsync(name)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


def build_system(extractor, directory: Path):
    fs = CountingFs(OsFileSystem(directory))
    pipeline = CreatePipeline(
        extractor=extractor, durability=DurabilityManager(fs)
    )
    return pipeline, fs


# -- digests --------------------------------------------------------------


def canonical(value):
    """JSON-shaped copy with floats as ``%.9g`` text, so a digest does
    not depend on the last bits of a score."""
    if isinstance(value, float):
        return "%.9g" % value
    if isinstance(value, dict):
        return {str(key): canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    return value


def digest_of(value) -> str:
    text = json.dumps(canonical(value), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


def answer(request, response):
    """The part of a response body that must repeat.  A cohort
    evaluation also reports wall-clock seconds and how its plan went."""
    if request.route == "cohort" and response.status == 200:
        return {
            key: response.body[key]
            for key in ("name", "size", "population", "members")
        }
    return response.body


def get(app, path: str, **params):
    response = app.handle("GET", path, params=params)
    if response.status != 200:
        raise CheckFailed(f"GET {path}: status {response.status}")
    return response.body


def state_summary(app) -> dict:
    """What must be equal between two systems that saw the same
    acknowledged writes: report ids, graph size, review integers."""
    stats = get(app, "/stats")
    review = stats["review"]
    return {
        "ids": sorted(r["_id"] for r in get(app, "/reports", limit=10**9)["reports"]),
        "n_reports": stats["n_reports"],
        "graph_nodes": stats["graph_nodes"],
        "graph_edges": stats["graph_edges"],
        "review": {
            key: review[key]
            for key in (
                "documents", "claims", "queue_depth", "decided",
                "by_verdict", "double_reviewed",
            )
        },
    }


def state_digest(app, probes: list[str]) -> str:
    """:func:`state_summary` plus what a few searches return, which
    covers the keyword index the summary cannot see."""
    return digest_of(
        [state_summary(app)]
        + [get(app, "/search", q=text, size=10)["results"] for text in probes]
    )


def search_counters(app) -> dict:
    counters = get(app, "/stats")["metrics"]["counters"]
    return {
        key: counters.get(f"ir.{key}", 0)
        for key in ("searches", "graph_candidates", "keyword_candidates")
    }


# -- one repetition -------------------------------------------------------


@dataclass
class Repetition:
    """Everything one repetition measured and checked."""

    setup_s: float = 0.0
    timed_s: float = 0.0  # ingests + request latencies, the --seconds budget
    ingest_rates: list[float] = field(default_factory=list)
    latencies_ms: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checkpoints: list[str] = field(default_factory=list)
    ndcg: list[float] = field(default_factory=list)
    mention_tp: int = 0
    mention_predicted: int = 0
    mention_gold: int = 0
    wal_bytes: int = 0  # first ingest only, against text_bytes
    text_bytes: int = 0
    request_routes: list[str] = field(default_factory=list)  # traced only
    counts: Counter = field(default_factory=Counter)
    cohort_sizes: list[int] = field(default_factory=list)
    measured_blocks: int = 0  # serving: request blocks after the warm-up

    def request_latencies(self) -> list[float]:
        return [ms for values in self.latencies_ms.values() for ms in values]


def mention_counts(annotation_text: str, doc_id: str) -> dict:
    """``(doc, label, lower-cased surface)`` multiset from the BRAT
    standoff ``GET /reports/{id}/ann`` serves."""
    counts: dict = {}
    for line in annotation_text.splitlines():
        if line.startswith("T"):
            _ann_id, head, surface = line.split("\t", 2)
            key = (doc_id, head.split(" ", 1)[0], surface.lower())
            counts[key] = counts.get(key, 0) + 1
    return counts


def timed_ingest(pipeline, fs, corpus, rep: Repetition, tracer, first: bool):
    """One timed ``ingest_from_site``, then the checks on what it
    indexed.  ``first`` marks the repetition's guaranteed ingest, the
    one the quality metrics are taken from.  Returns ``(seconds,
    annotations by report id)``."""
    appended_before = fs.appended
    if tracer is not None:
        tracer.begin(rep.request_routes, "ingest")
    start = time.perf_counter()
    stats = pipeline.ingest_from_site(corpus.site)
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.recording = False
    wal_bytes = fs.appended - appended_before

    n_reports = len(corpus.reports)
    rep.attempted += n_reports
    rep.failed += len(stats.dead_letters)
    rep.ingest_rates.append(n_reports / seconds)
    rep.counts["dead_letters"] += len(stats.dead_letters)
    rep.counts["parse_retries"] += stats.parse_retries
    if stats.indexed != n_reports:
        raise CheckFailed(f"ingest indexed {stats.indexed} of {n_reports}")
    app = pipeline.app
    ids = [r["_id"] for r in get(app, "/reports", limit=10**9)["reports"]]
    if sorted(ids) != sorted(r.pmid for r in corpus.reports):
        raise CheckFailed("stored report ids are not the site's pmids")
    annotations = {doc_id: get(app, f"/reports/{doc_id}/ann") for doc_id in ids}
    if first:
        predicted: dict = {}
        for doc_id, text in annotations.items():
            predicted.update(mention_counts(text, doc_id))
        gold = corpus.gold_mentions
        rep.mention_tp += sum(
            min(count, gold.get(key, 0)) for key, count in predicted.items()
        )
        rep.mention_predicted += sum(predicted.values())
        rep.mention_gold += sum(gold.values())
        rep.wal_bytes += wal_bytes
        rep.text_bytes += corpus.text_bytes
        stats_body = get(app, "/stats")
        rep.counts["graph_nodes"] = stats_body["graph_nodes"]
        rep.counts["graph_edges"] = stats_body["graph_edges"]
    return seconds, annotations


def run_block(app, client, gains, rep: Repetition, tracer, score: bool = True,
              summarize_state: bool = False) -> bool:
    """Issue up to :data:`workloads.BLOCK` requests, time each, check
    its status and add the block's digest to the checkpoints.  With
    ``score`` the searches feed ``ndcg10``.  False when the client has
    nothing more to ask."""
    clock = time.perf_counter
    handle = app.handle
    digest = hashlib.sha256()
    issued = 0
    while issued < wl.BLOCK:
        request = client.next()
        if request is None:
            break
        if tracer is not None:
            tracer.begin(rep.request_routes, request.route)
        start = clock()
        response = handle(
            request.method, request.path, body=request.body, params=request.params
        )
        elapsed = clock() - start
        if tracer is not None:
            tracer.recording = False
        issued += 1
        rep.timed_s += elapsed
        rep.attempted += 1
        rep.latencies_ms.setdefault(request.route, []).append(elapsed * 1e3)
        if response.status != request.expect:
            rep.failed += 1
        client.observe(request, response)
        digest.update(
            json.dumps(
                [request.method, request.path, response.status,
                 canonical(answer(request, response))],
                sort_keys=True,
            ).encode("utf-8")
        )
        if response.status != 200:
            continue
        if request.route == "search" and score:
            ranked = [row["id"] for row in response.body["results"]]
            rep.ndcg.append(ndcg_at_k(ranked, gains[request.params["q"]], 10))
        elif request.route == "cohort":
            rep.cohort_sizes.append(response.body["size"])
    if issued:
        if summarize_state:
            digest.update(digest_of(state_summary(app)).encode("ascii"))
        rep.checkpoints.append(digest.hexdigest()[:32])
    return issued == wl.BLOCK


def check_recovery(pipeline, fs, extractor, directory: Path, probes) -> None:
    """Every acknowledged write is readable after a restart: a second
    pipeline over the same WAL directory recovers to the same state."""
    before = state_digest(pipeline.app, probes)
    fs.close()
    recovered, recovered_fs = build_system(extractor, directory)
    try:
        recovered.recover()
        after = state_digest(recovered.app, probes)
    finally:
        recovered_fs.close()
    if after != before:
        raise CheckFailed("state after recover() differs from the live state")


def ingest_repetition(rep, seed, repetition, budget_s, directory, extractor,
                      tracer, replay, setup_start) -> None:
    """``ingest_bulk``: fresh pipeline, one ``ingest_from_site``, the
    read-back; again on a new corpus while the budget lasts.  Set-up
    ends when the first pipeline stands."""
    block = 0
    fsyncs = appended = 0
    while True:
        cseed = wl.corpus_seed(seed, repetition, block)
        corpus = wl.make_corpus(cseed)
        readback, _rest, gains = wl.readback_split(
            corpus, cseed, wl.DISTINCT_DRAWS, wl.INGEST_READBACK
        )
        pipeline, fs = build_system(extractor, directory / f"ingest-{block}")
        if block == 0:
            rep.setup_s = time.perf_counter() - setup_start
        gc.collect()
        seconds, _annotations = timed_ingest(
            pipeline, fs, corpus, rep, tracer, first=block == 0
        )
        rep.timed_s += seconds
        client = wl.ListClient(readback)
        gc.collect()
        scored = wl.N_READBACK // wl.BLOCK if block == 0 else 0
        for index in range(wl.INGEST_READBACK // wl.BLOCK):
            run_block(pipeline.app, client, gains, rep, tracer, index < scored)
        if block == 0:
            rep.counts.update(search_counters(pipeline.app))
        rep.checkpoints.append(state_digest(pipeline.app, []))
        fsyncs += fs.fsyncs
        appended += fs.appended
        fs.close()
        block += 1
        if replay is not None:
            if block >= len(replay.ingest_rates):
                break
        elif rep.timed_s >= budget_s:
            break
    rep.counts["fsyncs"] = fsyncs
    rep.counts["wal_bytes"] = appended


def run_repetition(
    workload: str,
    seed: int,
    repetition: int,
    budget_s: float,
    directory: Path,
    extractor=None,
    tracer: Tracer | None = None,
    replay: Repetition | None = None,
    recover: bool = True,
) -> Repetition:
    """Set up and measure one repetition.

    ``budget_s`` bounds the timed work; with ``replay`` the repetition
    instead does exactly the work ``replay`` did (the traced run
    repeats the untraced one so their digests and times compare).
    ``recover`` is whether a mutating workload ends with the restart
    check, which costs as much as half the repetition's timed work.
    """
    rep = Repetition()
    clock = time.perf_counter
    start = clock()
    if extractor is None:
        extractor = ClinicalExtractor.train(wl.train_reports())
    if workload == "ingest_bulk":
        ingest_repetition(
            rep, seed, repetition, budget_s, directory, extractor, tracer,
            replay, start,
        )
        return rep

    corpus = wl.make_corpus(wl.corpus_seed(seed, repetition))
    inputs = wl.serving_inputs(workload, seed, repetition, corpus)
    pipeline, fs = build_system(extractor, directory)
    rep.setup_s = clock() - start
    seconds, annotations = timed_ingest(pipeline, fs, corpus, rep, None, first=True)
    app = pipeline.app
    start = clock()
    warm = Repetition()
    warm_client = wl.ListClient(inputs.warmup)
    while run_block(app, warm_client, inputs.gains, warm, None):
        pass
    rep.setup_s += seconds + clock() - start
    if warm.failed:
        raise CheckFailed(f"{warm.failed} warm-up requests failed")
    rep.attempted += warm.attempted
    rep.ndcg = warm.ndcg
    rep.checkpoints = warm.checkpoints

    client = inputs.make_client(sorted(annotations), annotations)
    mutating = workload == "curate_mixed"
    counters_before = search_counters(app)
    fsyncs, appended = fs.fsyncs, fs.appended
    gc.collect()
    blocks = 0
    while True:
        more = run_block(
            app, client, inputs.gains, rep, tracer,
            score=False, summarize_state=mutating,
        )
        blocks += 1
        if not more:
            break
        if replay is not None:
            if blocks >= replay.measured_blocks:
                break
        elif blocks >= wl.MIN_BLOCKS and rep.timed_s >= budget_s:
            break
    rep.measured_blocks = blocks
    rep.counts["fsyncs"] = fs.fsyncs - fsyncs
    rep.counts["wal_bytes"] = fs.appended - appended
    for key, value in search_counters(app).items():
        rep.counts[key] = value - counters_before[key]
    rep.counts["queue_depth"] = get(app, "/stats")["review"]["queue_depth"]
    if mutating and recover:
        check_recovery(pipeline, fs, extractor, directory, inputs.probes)
    else:
        fs.close()
    return rep


# -- one run --------------------------------------------------------------


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def spread(values: list[float]) -> dict:
    """Median, quartiles and count of a metric's per-repetition (or
    per-ingest) values, for the report."""
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        out["q1"], out["q3"] = q1, q3
    return out


def end_to_end_metrics(reps: list[Repetition]) -> tuple[dict, dict]:
    """``(metrics, detail)``: the eight end-to-end values as ``name ->
    (value, unit)``, and for each timing its spread over repetitions
    (or ingests) with the number of samples underneath."""
    searches = [rep.latencies_ms["search"] for rep in reps]
    requests = [rep.request_latencies() for rep in reps]
    ndcg = [value for rep in reps for value in rep.ndcg]
    timings = {
        "setup_s": ("s", [rep.setup_s for rep in reps], len(reps)),
        "docs_per_s": (
            "1/s",
            [rate for rep in reps for rate in rep.ingest_rates],
            sum(len(rep.ingest_rates) for rep in reps),
        ),
        "ops_per_s": (
            "1/s",
            [len(ms) / (sum(ms) / 1e3) for ms in requests],
            sum(len(ms) for ms in requests),
        ),
        "search_p50_ms": (
            "ms",
            [statistics.median(ms) for ms in searches],
            sum(len(ms) for ms in searches),
        ),
    }
    metrics: dict = {}
    detail: dict = {}
    for name, (unit, values, samples) in timings.items():
        detail[name] = {**spread(values), "samples": samples}
        metrics[name] = (detail[name]["median"], unit)
    predicted = sum(rep.mention_predicted for rep in reps)
    gold = sum(rep.mention_gold for rep in reps)
    metrics["mention_f1"] = (
        2 * sum(rep.mention_tp for rep in reps) / (predicted + gold), "ratio")
    metrics["wal_bytes_per_doc_byte"] = (
        sum(rep.wal_bytes for rep in reps) / sum(rep.text_bytes for rep in reps),
        "ratio",
    )
    metrics["ndcg10"] = (statistics.fmean(ndcg), "ratio")
    detail["ndcg10"] = {"samples": len(ndcg)}
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    return metrics, detail


def per_layer_metrics(plain: Repetition, traced: Repetition, tracer: Tracer):
    """The per-layer values: span self times and call counts from the
    traced repetition, counts and per-route medians from the untraced
    one it repeated."""
    summary = tracer.summary()
    metrics: dict = {}
    for name in SPAN_TARGETS:
        row = summary.get(name, {"calls": 0, "self_s": 0.0})
        metrics[f"{name}.self_s"] = (row["self_s"], "s")
        metrics[f"{name}.calls"] = (row["calls"], "count")
    n_search = len(plain.latencies_ms.get("search", ())) or 1
    searches = plain.counts["searches"] or 1
    match_in_search = sum(
        1
        for span in tracer.spans
        if span[0] == "graphdb.match"
        and traced.request_routes[span[4]] == "search"
    )
    counts = plain.counts
    metrics.update(
        {
            "durability.fsyncs": (counts["fsyncs"], "count"),
            "durability.wal_bytes": (counts["wal_bytes"], "bytes"),
            "ir.graph_candidates_per_search": (
                counts["graph_candidates"] / searches, "1/req"),
            "ir.keyword_candidates_per_search": (
                counts["keyword_candidates"] / searches, "1/req"),
            "graphdb.match.calls_per_search": (match_in_search / n_search, "1/req"),
            "graphdb.nodes": (counts["graph_nodes"], "count"),
            "graphdb.edges": (counts["graph_edges"], "count"),
            "cohort.members_per_eval": (
                statistics.fmean(plain.cohort_sizes) if plain.cohort_sizes else 0.0,
                "count",
            ),
            "review.queue_depth": (counts["queue_depth"], "count"),
            "pipeline.dead_letters": (counts["dead_letters"], "count"),
            "pipeline.parse_retries": (counts["parse_retries"], "count"),
        }
    )
    for route in wl.ROUTES:
        values = plain.latencies_ms.get(route)
        metrics[f"api.route.{route}.p50_ms"] = (
            statistics.median(values) if values else 0.0, "ms")
    metrics["api.route.search.p95_ms"] = (
        percentile(plain.latencies_ms["search"], 0.95), "ms")
    self_total = sum(row["self_s"] for row in summary.values())
    metrics["trace.coverage"] = (self_total / traced.timed_s, "ratio")
    metrics["trace.overhead_share"] = (
        (traced.timed_s - plain.timed_s) / plain.timed_s, "ratio")
    metrics["trace.unresolved_targets"] = (len(tracer.unresolved), "count")
    return metrics


def check_golden(workload: str, seed: int, reps: list[Repetition], update: bool) -> dict:
    """Compare each repetition's checkpoints with the committed golden
    for seed 0 (as far as both go); ``update`` rewrites it instead."""
    path = GOLDEN_DIR / f"{workload}.json"
    checkpoints = [rep.checkpoints for rep in reps]
    if update:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(
            json.dumps({"seed": seed, "checkpoints": checkpoints}, indent=1) + "\n",
            encoding="utf-8",
        )
        return {"golden": "updated"}
    if seed != 0:
        return {"golden": "skipped (seed != 0)"}
    golden = json.loads(path.read_text(encoding="utf-8"))["checkpoints"]
    compared = 0
    for index, (ours, theirs) in enumerate(zip(checkpoints, golden)):
        for block, (a, b) in enumerate(zip(ours, theirs)):
            if a != b:
                raise CheckFailed(
                    f"repetition {index} block {block}: digest {a} "
                    f"differs from golden {b}"
                )
            compared += 1
    if compared == 0:
        raise CheckFailed("no checkpoint could be compared with the golden")
    return {"golden": f"{compared} checkpoints equal"}


def run(workload: str, seed: int, seconds: float, trace: bool,
        update_golden: bool = False) -> dict:
    """One run of one workload.  Returns the report: ``correct``,
    ``attempted``, ``failed``, ``metrics`` (name -> (value, unit)),
    ``detail``, ``checks`` and, when traced, ``spans``."""
    if workload not in wl.WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    scratch = SCRATCH_DIR / f"run-{time.time_ns()}"
    scratch.mkdir(parents=True)
    report: dict = {"workload": workload, "seed": seed, "trace": trace, "checks": {}}
    reps: list[Repetition] = []
    try:
        if not trace:
            for index in range(wl.REPETITIONS):
                reps.append(
                    run_repetition(
                        workload, seed, index, seconds / wl.REPETITIONS,
                        scratch / f"rep-{index}",
                        recover=index == wl.REPETITIONS - 1,
                    )
                )
                gc.collect()
            report["checks"].update(check_golden(workload, seed, reps, update_golden))
            metrics, report["detail"] = end_to_end_metrics(reps)
        else:
            extractor = ClinicalExtractor.train(wl.train_reports())
            plain = run_repetition(
                workload, seed, 0, seconds / 2, scratch / "plain", extractor
            )
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_repetition(
                    workload, seed, 0, seconds / 2, scratch / "traced",
                    extractor, tracer, replay=plain,
                )
            finally:
                tracer.uninstall()
            reps = [plain, traced]
            if traced.checkpoints != plain.checkpoints:
                raise CheckFailed("traced digests differ from untraced digests")
            report["checks"]["traced"] = (
                f"{len(traced.checkpoints)} checkpoints equal untraced"
            )
            report["checks"].update(check_golden(workload, seed, [plain], False))
            metrics = per_layer_metrics(plain, traced, tracer)
            report["spans"] = tracer.export()
            report["request_routes"] = traced.request_routes
        report["correct"] = True
    except CheckFailed as failure:
        report["correct"] = False
        report["checks"]["failure"] = str(failure)
        metrics = {}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    report["attempted"] = max(1, sum(rep.attempted for rep in reps))
    report["failed"] = sum(rep.failed for rep in reps)
    if report["failed"]:
        report["correct"] = False
    report["metrics"] = metrics
    return report
