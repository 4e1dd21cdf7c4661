"""End-to-end orchestration: crawl -> parse -> extract -> index -> serve.

This module wires every subsystem into the architecture of the paper's
Figures 2/3: the crawler captures publications from the (synthetic)
PubMed site, the Grobid service converts them to structured text, the
trained extraction models produce each report's knowledge graph, the
dual indexer loads the graph and keyword engines, and the application
facade serves search/annotation/visualization requests.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.annotation.model import AnnotationDocument
from repro.api.app import CreateApplication
from repro.corpus.datasets import TemporalDocument, TemporalInstance
from repro.corpus.generator import CaseReport, CaseReportGenerator
from repro.corpus.pubmed import build_corpus
from repro.crawler.crawler import Crawler, CrawlResult
from repro.crawler.repository import SyntheticPubMed
from repro.docstore.store import DocumentStore
from repro.durability import Durable, DurabilityManager, RecoveryReport
from repro.exceptions import (
    ParseError,
    PipelineError,
    ReproError,
    StageFailure,
    TransientParseError,
)
from repro.grobid.service import GrobidService
from repro.ir.indexer import CreateIrIndexer
from repro.ir.query_parser import QueryParser
from repro.ir.searcher import CreateIrSearcher
from repro.ml.embeddings import CharNgramEmbedder
from repro.ner.negation import NegationDetector
from repro.ner.tagger import NerTagger
from repro.runtime.executor import BatchExecutor
from repro.runtime.metrics import MetricsRegistry
from repro.schema.types import is_event_label
from repro.temporal.classifier import TemporalClassifier
from repro.temporal.global_inference import global_inference
from repro.temporal.psl import PslConfig, fit_with_psl
from repro.temporal.relations import THREE_WAY_ALGEBRA
from repro.text.tokenize import tokenize


class ClinicalExtractor:
    """NER + temporal RE applied to raw report text.

    The trained extraction stack of CREATe-IR: tags entity/event spans
    with the C-FLAIR-substitute tagger, classifies temporal relations
    between nearby events with the PSL-trained classifier, and (by
    default) enforces global consistency before emitting relations.
    """

    def __init__(
        self,
        ner: NerTagger,
        temporal: TemporalClassifier | None,
        use_global_inference: bool = True,
        max_pair_distance: int = 3,
    ):
        self.ner = ner
        self.temporal = temporal
        self.use_global_inference = use_global_inference
        self.max_pair_distance = max_pair_distance
        self.algebra = THREE_WAY_ALGEBRA
        self.negation = NegationDetector()

    @classmethod
    def train(
        cls,
        train_reports: list[CaseReport],
        unlabeled_sentences: list[list[str]] | None = None,
        seed: int = 13,
        ner_epochs: int = 5,
        temporal_epochs: int = 15,
    ) -> "ClinicalExtractor":
        """Train both models from gold-annotated reports."""
        if not train_reports:
            raise PipelineError("no training reports")
        embedder = None
        if unlabeled_sentences:
            embedder = CharNgramEmbedder(seed=seed).fit(unlabeled_sentences)
            embedder.fit_clusters()
        ner = NerTagger(
            decoder="crf",
            use_context_embeddings=embedder is not None,
            embedder=embedder,
            epochs=ner_epochs,
            seed=seed,
        )
        ner.fit([report.annotations for report in train_reports])

        temporal_docs = [
            _temporal_doc_from_report(report, max_distance=3)
            for report in train_reports
        ]
        temporal_docs = [doc for doc in temporal_docs if doc.pairs]
        temporal = None
        if temporal_docs:
            temporal = fit_with_psl(
                TemporalClassifier(epochs=temporal_epochs, seed=seed),
                temporal_docs,
                THREE_WAY_ALGEBRA,
                PslConfig(weight=1.0, epochs=temporal_epochs, seed=seed),
            )
        return cls(ner, temporal)

    def extract(self, doc_id: str, text: str) -> AnnotationDocument:
        """Produce an annotation document for raw text.

        Negated mentions (NegEx-style scope detection) receive a
        ``Negated`` attribute and are excluded from the temporal event
        sequence — a denied symptom is not part of the clinical course.
        """
        doc = AnnotationDocument(doc_id=doc_id, text=text)
        scopes = self.negation.detect(text)
        for span in self.ner.predict_spans(text):
            tb = doc.add_textbound(span.label, span.start, span.end)
            if self.negation.span_negated((span.start, span.end), scopes):
                doc.add_attribute("Negated", tb.ann_id)
        if self.temporal is None:
            return doc

        event_ids = [
            tb.ann_id
            for tb in doc.spans_sorted()
            if is_event_label(tb.label) and not doc.is_negated(tb.ann_id)
        ]
        pairs = []
        for i, src_id in enumerate(event_ids):
            upper = min(i + 1 + self.max_pair_distance, len(event_ids))
            for j in range(i + 1, upper):
                pairs.append(
                    TemporalInstance(
                        doc_id,
                        src_id,
                        event_ids[j],
                        self.temporal.labels[0],  # placeholder
                        j - i,
                    )
                )
        if not pairs:
            return doc
        tdoc = TemporalDocument(doc_id, doc, event_ids, pairs)
        probs = self.temporal.predict_proba_doc(tdoc)
        if self.use_global_inference:
            labels = global_inference(
                tdoc, probs, self.temporal.labels, self.algebra
            )
        else:
            labels = [
                self.temporal.labels[int(k)]
                for k in np.argmax(probs, axis=1)
            ]
        for pair, label in zip(pairs, labels):
            doc.add_relation(label, pair.src_id, pair.tgt_id)
        return doc


def _temporal_doc_from_report(
    report: CaseReport, max_distance: int
) -> TemporalDocument:
    order = [event.event_id for event in report.timeline.events]
    pairs = []
    for i, a in enumerate(report.timeline.events):
        upper = min(i + 1 + max_distance, len(report.timeline.events))
        for j in range(i + 1, upper):
            b = report.timeline.events[j]
            from repro.corpus.timeline import interval_relation

            pairs.append(
                TemporalInstance(
                    report.report_id,
                    a.event_id,
                    b.event_id,
                    interval_relation(a, b),
                    j - i,
                )
            )
    return TemporalDocument(
        report.report_id, report.annotations, order, pairs
    )


@dataclass(frozen=True, slots=True)
class DeadLetter:
    """One document's isolated failure record.

    A failed document never aborts the run and is never silently
    dropped: it lands here with enough context to retry or debug it.
    """

    doc_id: str
    stage: str  # "parse", "extract", or "index"
    error_type: str
    message: str
    attempts: int = 1


@dataclass
class PipelineStats:
    """Counters from one pipeline run.

    Deliberately contains no wall-clock timings so a parallel ingest
    produces stats byte-identical to a serial one (timings live in the
    pipeline's :class:`MetricsRegistry`).
    """

    crawled: int = 0
    parsed: int = 0
    parse_failures: int = 0
    parse_failed_ids: list[str] = field(default_factory=list)
    parse_retries: int = 0
    extracted: int = 0
    extract_failures: int = 0
    indexed: int = 0
    index_failures: int = 0
    id_collisions: int = 0
    contradiction_skips: int = 0
    closure_failures: int = 0
    graph_nodes: int = 0
    graph_edges: int = 0
    dead_letters: list[DeadLetter] = field(default_factory=list)

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, slots=True)
class _ExtractedDoc:
    """Parse+extract output shipped back from a batch worker."""

    doc_id: str
    title: str
    authors: list[str]
    abstract: str
    text: str
    source: str
    annotations: AnnotationDocument
    parse_seconds: float
    extract_seconds: float
    parse_attempts: int


# Worker-side state for the parse+extract stage.  Set by
# :func:`_init_ingest_worker`, which the executor runs once per process
# worker (inheriting heavyweight models via fork) and once inline for
# serial/thread mode.
_INGEST_WORKER: dict = {}


def _init_ingest_worker(
    grobid: GrobidService, extractor: ClinicalExtractor, retries: int
) -> None:
    _INGEST_WORKER["grobid"] = grobid
    _INGEST_WORKER["extractor"] = extractor
    _INGEST_WORKER["retries"] = retries


def _parse_extract(payload: tuple[str, str, str]) -> _ExtractedDoc:
    """One document through parse (with bounded retry) and extract.

    Raises:
        StageFailure: a *known* failure mode — ``ParseError`` (after
            exhausting retries for transient service errors) or any
            exception from extraction — tagged with its stage so the
            parent can dead-letter it.  Anything else propagates raw
            and aborts the run: unexpected exceptions must not be
            silently eaten.
    """
    doc_id, body, source = payload
    grobid: GrobidService = _INGEST_WORKER["grobid"]
    extractor: ClinicalExtractor = _INGEST_WORKER["extractor"]
    retries: int = _INGEST_WORKER["retries"]

    attempts = 0
    parse_start = time.perf_counter()
    while True:
        attempts += 1
        try:
            publication = grobid.process(body)
            break
        except TransientParseError as exc:
            if attempts > retries:
                raise StageFailure(
                    "parse", type(exc).__name__, str(exc), attempts
                ) from exc
        except ParseError as exc:
            raise StageFailure(
                "parse", type(exc).__name__, str(exc), attempts
            ) from exc
    parse_seconds = time.perf_counter() - parse_start

    text = publication.body_text()
    extract_start = time.perf_counter()
    try:
        annotations = extractor.extract(doc_id, text)
    except Exception as exc:
        raise StageFailure(
            "extract", type(exc).__name__, str(exc), attempts
        ) from exc
    return _ExtractedDoc(
        doc_id=doc_id,
        title=publication.metadata.title,
        authors=list(publication.metadata.authors),
        abstract=publication.metadata.abstract,
        text=text,
        source=source,
        annotations=annotations,
        parse_seconds=parse_seconds,
        extract_seconds=time.perf_counter() - extract_start,
        parse_attempts=attempts,
    )


@dataclass
class CreatePipeline:
    """The assembled system, end to end.

    Build with :func:`build_demo_system` for the standard demo
    configuration, or construct the pieces individually for tests.

    Ingestion runs as explicit staged batches — serial crawl, parallel
    parse+extract (the CPU-heavy NER Viterbi + temporal
    global-inference path), serial index/store — so results are
    deterministic at any worker count.  Per-document failures are
    isolated into :class:`DeadLetter` records instead of aborting the
    run or being silently swallowed.

    Args:
        workers: default parse+extract pool size (1 = serial).
        executor_mode: ``"thread"`` (overlaps Grobid service latency)
            or ``"process"`` (sidesteps the GIL for CPU-bound
            extraction on multi-core hosts).
        parse_retries: bounded retries for transient Grobid errors.
        indexer: the dual index to load and serve.  The default is the
            paper's configuration (in-memory graph + in-memory keyword
            engine); inject
            ``CreateIrIndexer(engine=create_segment_ir_engine(dir))`` to
            serve the keyword index from on-disk segments.  Results
            are exactly rank-equivalent (bit-identical scores).
        durability: optional WAL/snapshot manager.  When set, the
            docstore, property graph, keyword index, and review queue
            are attached to it, every registered report commits as one
            atomic WAL record, and :meth:`recover` rebuilds all four
            stores from disk after a crash.  Both index stores must
            speak the ``Durable`` protocol; one that does not is
            refused with :class:`PipelineError`.
    """

    extractor: ClinicalExtractor
    store: DocumentStore = field(default_factory=DocumentStore)
    grobid: GrobidService = field(default_factory=GrobidService)
    stats: PipelineStats = field(default_factory=PipelineStats)
    workers: int = 1
    executor_mode: str = "thread"
    parse_retries: int = 2
    indexer: CreateIrIndexer = field(default_factory=CreateIrIndexer)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    durability: DurabilityManager | None = None

    def __post_init__(self) -> None:
        parser = QueryParser(self.extractor.ner, self.extractor.temporal)
        self.indexer.engine.metrics = self.metrics
        self.searcher = CreateIrSearcher(
            self.indexer, parser=parser, metrics=self.metrics
        )
        if self.durability is not None:
            for store in (self.indexer.graph, self.indexer.engine):
                if not isinstance(store, Durable):
                    # attach() would set a journal nobody fills and
                    # recover() would come back with this store empty.
                    raise PipelineError(
                        f"{type(store).__name__} does not implement the "
                        "Durable protocol; recovery could not rebuild it"
                    )
            # Attach order is replay order; these three and the review
            # queue (attached below, once the application owns it)
            # recover together, so a document is either fully visible
            # everywhere or absent everywhere.
            self.durability.attach("docstore", self.store)
            self.durability.attach("graph", self.indexer.graph)
            self.durability.attach("index", self.indexer.engine)
        self.app = CreateApplication(
            store=self.store,
            indexer=self.indexer,
            searcher=self.searcher,
            grobid=self.grobid,
            extractor=self.extractor.extract,
            metrics=self.metrics,
            runtime_stats=lambda: self.stats.as_dict(),
            durability=self.durability,
        )
        if self.durability is not None:
            # Review claims/decisions replay after the stores they
            # reference: a recovered claim always finds its report.
            self.durability.attach("review", self.app.review)

    def recover(self) -> RecoveryReport:
        """Rebuild the docstore, graph, keyword index, and review queue
        from the durability manager's snapshot + WAL.

        Raises:
            PipelineError: the pipeline has no durability manager.
        """
        if self.durability is None:
            raise PipelineError("pipeline has no durability manager")
        return self.durability.recover()

    def ingest_from_site(
        self,
        site: SyntheticPubMed,
        max_pages: int | None = None,
        workers: int | None = None,
    ) -> PipelineStats:
        """Crawl a site and run every captured publication through
        parse -> extract -> index -> store.

        Stages:

        1. **crawl** (serial): frontier-driven capture.
        2. **parse+extract** (parallel over ``workers``): Grobid parse
           with bounded retry for transient service errors, then NER +
           temporal extraction.  Per-document failures dead-letter;
           unexpected exceptions propagate.
        3. **index/store** (serial, input order): keeps graph/keyword
           index contents byte-identical at any worker count.
        """
        workers = self.workers if workers is None else workers
        with self.metrics.time("pipeline.ingest_seconds"):
            with self.metrics.time("pipeline.crawl_seconds"):
                crawler = Crawler(site, metrics=self.metrics)
                results = crawler.crawl(max_pages=max_pages)
            self.stats.crawled += len(results)
            self.metrics.increment("pipeline.crawled", len(results))

            payloads = self._assign_doc_ids(results)
            with self.metrics.time("pipeline.parse_extract_seconds"):
                executor = BatchExecutor(
                    workers=workers,
                    mode=self.executor_mode,
                    initializer=_init_ingest_worker,
                    initargs=(self.grobid, self.extractor, self.parse_retries),
                )
                outcomes = executor.map(_parse_extract, payloads)
            extracted = self._collect_outcomes(payloads, outcomes)

            with self.metrics.time("pipeline.index_stage_seconds"):
                self._index_documents(extracted)

        self.stats.graph_nodes = self.indexer.graph.n_nodes
        self.stats.graph_edges = self.indexer.graph.n_edges
        return self.stats

    # -- ingest stages -----------------------------------------------------

    def _assign_doc_ids(
        self, results: list[CrawlResult]
    ) -> list[tuple[str, str, str]]:
        """Derive doc ids from URLs, disambiguating collisions.

        Two URLs sharing a final path segment (or a segment already in
        the store) would silently overwrite each other; instead the
        later one gets a deterministic ``<id>~<n>`` suffix and the
        collision is counted.
        """
        reports = self.store.collection("reports")
        seen: set[str] = set()
        payloads = []
        for result in results:
            base = result.url.rsplit("/", 1)[-1]
            doc_id = base
            suffix = 2
            while doc_id in seen or reports.get(doc_id) is not None:
                doc_id = f"{base}~{suffix}"
                suffix += 1
            if doc_id != base:
                self.stats.id_collisions += 1
                self.metrics.increment("pipeline.id_collisions")
            seen.add(doc_id)
            payloads.append((doc_id, result.body, result.content_type))
        return payloads

    def _collect_outcomes(self, payloads, outcomes) -> list[_ExtractedDoc]:
        """Apply the failure policy to batch outcomes, in input order."""
        extracted: list[_ExtractedDoc] = []
        for payload, outcome in zip(payloads, outcomes):
            doc_id = payload[0]
            if outcome.ok:
                doc: _ExtractedDoc = outcome.value
                self.stats.parsed += 1
                self.stats.extracted += 1
                self.stats.parse_retries += doc.parse_attempts - 1
                self.metrics.record(
                    "pipeline.parse_seconds", doc.parse_seconds
                )
                self.metrics.record(
                    "pipeline.extract_seconds", doc.extract_seconds
                )
                extracted.append(doc)
                continue
            error = outcome.error
            if not isinstance(error, StageFailure):
                # Unexpected failure: propagate instead of eating it.
                raise error
            self._dead_letter(
                doc_id,
                error.stage,
                error.error_type,
                error.message,
                error.attempts,
            )
            if error.stage == "parse":
                self.stats.parse_failures += 1
                self.stats.parse_failed_ids.append(doc_id)
                self.stats.parse_retries += error.attempts - 1
            else:
                self.stats.parsed += 1  # parse succeeded, extract failed
                self.stats.parse_retries += error.attempts - 1
                self.stats.extract_failures += 1
        return extracted

    def _index_documents(self, extracted: list[_ExtractedDoc]) -> None:
        skips_before = self.indexer.contradiction_skips
        closures_before = self.indexer.closure_failures
        for doc in extracted:
            document = {
                "_id": doc.doc_id,
                "title": doc.title,
                "authors": doc.authors,
                "abstract": doc.abstract,
                "text": doc.text,
                "source": doc.source,
            }
            try:
                with self.metrics.time("pipeline.index_seconds"):
                    self.app.register_report(document, doc.annotations)
            except ReproError as exc:
                self.stats.index_failures += 1
                self._dead_letter(
                    doc.doc_id, "index", type(exc).__name__, str(exc)
                )
                continue
            self.stats.indexed += 1
            self.metrics.increment("pipeline.indexed")
        if self.durability is not None:
            # Drain any group-commit remainder: every indexed document
            # must be acknowledged (fsynced) before the stage returns.
            self.durability.flush()
        self.stats.contradiction_skips += (
            self.indexer.contradiction_skips - skips_before
        )
        self.stats.closure_failures += (
            self.indexer.closure_failures - closures_before
        )

    def _dead_letter(
        self,
        doc_id: str,
        stage: str,
        error_type: str,
        message: str,
        attempts: int = 1,
    ) -> None:
        self.stats.dead_letters.append(
            DeadLetter(doc_id, stage, error_type, message, attempts)
        )
        self.metrics.increment("pipeline.dead_letters")
        self.metrics.increment(f"pipeline.dead_letters.{stage}")


def build_demo_system(
    n_reports: int = 100,
    n_train: int = 60,
    seed: int = 0,
    use_gold_annotations: bool = False,
    workers: int = 1,
) -> tuple[CreatePipeline, list[CaseReport]]:
    """Standard demo configuration: train, crawl, ingest, serve.

    Args:
        n_reports: size of the served corpus.
        n_train: gold-annotated reports used to train the extractors
            (disjoint from the served corpus).
        use_gold_annotations: index gold annotations instead of running
            extraction (the "perfect extraction" upper bound).
        workers: parse+extract pool size for the ingest stage.

    Returns:
        (pipeline, served_reports) — the reports list carries the gold
        layers for evaluation.
    """
    train_generator = CaseReportGenerator(seed=seed + 900)
    train_reports = [
        train_generator.generate(f"train-{i:04d}", "cardiovascular")
        for i in range(n_train)
    ]
    unlabeled = [
        [token.text for token in tokenize(report.text)]
        for report in train_reports
    ]
    extractor = ClinicalExtractor.train(
        train_reports, unlabeled_sentences=unlabeled, seed=seed + 13
    )
    pipeline = CreatePipeline(extractor=extractor, workers=workers)

    reports = build_corpus(n_reports, seed=seed)
    if use_gold_annotations:
        for report in reports:
            pipeline.app.register_report(
                report.to_document(), report.annotations
            )
        pipeline.stats.indexed = len(reports)
    else:
        site = SyntheticPubMed(reports, seed=seed)
        pipeline.ingest_from_site(site)
    return pipeline, reports
