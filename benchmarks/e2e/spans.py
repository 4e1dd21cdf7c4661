"""Spans recorded from outside the program.

The traced run hangs a timing wrapper on each public function listed
in :data:`SPAN_TARGETS` (class attribute or module attribute, found by
dotted path), keeps the spans in memory and takes the wrappers off
again.  Nothing under ``src/`` knows it is being timed, so a refactor
there can at worst make a target stop resolving — the span is then
reported as unresolved and the untraced run is unaffected.

The repo's own ``repro.runtime.tracing.SpanTracer`` is deliberately not
used: it is not part of the stable surface this benchmark may depend
on (ROADMAP item 4 replaces it), and a context manager plus a lock per
span costs several microseconds where a request holds ~50 spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from types import FunctionType

# span name -> dotted paths timed under that name.  Layers are this
# repo's packages; several targets may share a span (the keyword engine
# has two implementations ``CreatePipeline`` can pick).
SPAN_TARGETS: dict[str, tuple[str, ...]] = {
    "crawler.crawl": ("repro.crawler.crawler.Crawler.crawl",),
    "grobid.process": ("repro.grobid.service.GrobidService.process",),
    "ner.predict_spans": ("repro.ner.tagger.NerTagger.predict_spans",),
    "ner.negation": ("repro.ner.negation.NegationDetector.detect",),
    "temporal.predict_proba": (
        "repro.temporal.classifier.TemporalClassifier.predict_proba_doc",
    ),
    "temporal.global_inference": ("repro.pipeline.global_inference",),
    "pipeline.extract": ("repro.pipeline.ClinicalExtractor.extract",),
    "pipeline.ingest": ("repro.pipeline.CreatePipeline.ingest_from_site",),
    "api.register_report": (
        "repro.api.app.CreateApplication.register_report",
    ),
    "docstore.insert": ("repro.docstore.store.Collection.insert_one",),
    "docstore.delete": ("repro.docstore.store.Collection.delete_one",),
    "docstore.find": (
        "repro.docstore.store.Collection.find",
        "repro.docstore.store.Collection.get",
    ),
    "ir.index_report": (
        "repro.ir.indexer.CreateIrIndexer.index_annotation_document",
    ),
    "ontology.normalize": (
        "repro.ontology.normalize.ConceptNormalizer.normalize",
    ),
    "graphdb.cypher_run": ("repro.graphdb.cypher.CypherEngine.run",),
    "graphdb.add_edge": ("repro.graphdb.graph.PropertyGraph.add_edge",),
    "graphdb.remove_node": ("repro.graphdb.graph.PropertyGraph.remove_node",),
    "search.index": (
        "repro.search.engine.SearchEngine.index",
        "repro.search.segment_engine.SegmentSearchEngine.index",
    ),
    "search.delete": (
        "repro.search.engine.SearchEngine.delete",
        "repro.search.segment_engine.SegmentSearchEngine.delete",
    ),
    "search.bm25": (
        "repro.search.engine.SearchEngine.search",
        "repro.search.segment_engine.SegmentSearchEngine.search",
    ),
    "search.highlight": (
        "repro.search.engine.SearchEngine.highlight",
        "repro.search.segment_engine.SegmentSearchEngine.highlight",
    ),
    "review.enqueue": ("repro.review.queue.ReviewQueue.enqueue_document",),
    "review.decide": ("repro.review.queue.ReviewQueue.decide",),
    "review.queued": ("repro.review.queue.ReviewQueue.queued",),
    "review.drop": ("repro.review.queue.ReviewQueue.drop_document",),
    "durability.commit": (
        "repro.durability.manager.DurabilityManager.commit",
    ),
    "api.handle": ("repro.api.app.CreateApplication.handle",),
    "ir.search": ("repro.ir.searcher.CreateIrSearcher.search",),
    "ir.query_parse": ("repro.ir.query_parser.QueryParser.parse",),
    "ir.graph_search": ("repro.ir.searcher.CreateIrSearcher.graph_search",),
    "graphdb.match": ("repro.graphdb.match.match_pattern",),
    "cohort.evaluate": ("repro.cohort.engine.CohortEngine.evaluate",),
    "annotation.parse_ann": ("repro.api.app.parse_ann",),
    "schema.validate": ("repro.schema.validation.SchemaValidator.validate",),
}


def resolve(dotted: str):
    """``(owner, attribute name, function)`` for a dotted path, or None
    when no importable prefix leads to a plain function."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name, None)
        if owner is None:
            return None
        function = inspect.getattr_static(owner, parts[-1], None)
        if not isinstance(function, FunctionType):
            return None
        return owner, parts[-1], function
    return None


class Tracer:
    """In-memory spans with a per-thread stack.

    A span is ``[name, start, end, parent span or None, request id]``.
    Wrappers record only while :attr:`recording` is true, so they can
    be installed before the system is built (bound methods captured at
    construction must already be the wrapped ones) without set-up or
    checks showing in the spans.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.recording = False
        self.request_id = -1
        self.unresolved: list[str] = []
        self._local = threading.local()
        self._installed: list[tuple[object, str, FunctionType]] = []

    def begin(self, routes: list[str], route: str) -> None:
        """Start recording one timed call: it becomes request
        ``len(routes)`` of ``routes``.  The caller stops recording when
        the call returns, so only timed work is in the spans."""
        routes.append(route)
        self.request_id = len(routes) - 1
        self.recording = True

    def wrap(self, name: str, function):
        """``function`` timed as one span called ``name``."""
        spans = self.spans
        local = self._local
        clock = time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not self.recording:
                return function(*args, **kwargs)
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            span = [
                name,
                0.0,
                0.0,
                stack[-1] if stack else None,
                self.request_id,
            ]
            spans.append(span)
            stack.append(span)
            span[1] = clock()
            try:
                return function(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Replace every resolvable target by its timed wrapper."""
        for name, paths in SPAN_TARGETS.items():
            found = [r for r in map(resolve, paths) if r is not None]
            if not found:
                self.unresolved.append(name)
                print(
                    f"warning: span {name}: no target resolves "
                    f"({', '.join(paths)})",
                    file=sys.stderr,
                )
            for owner, attribute, function in found:
                setattr(owner, attribute, self.wrap(name, function))
                self._installed.append((owner, attribute, function))

    def uninstall(self) -> None:
        """Put the original functions back."""
        while self._installed:
            owner, attribute, function = self._installed.pop()
            setattr(owner, attribute, function)

    def summary(self) -> dict[str, dict]:
        """Per span name: ``calls`` and ``self_s``, the summed duration
        minus the part covered by direct child spans."""
        child_time: dict[int, float] = {}
        for span in self.spans:
            parent = span[3]
            if parent is not None:
                key = id(parent)
                child_time[key] = child_time.get(key, 0.0) + span[2] - span[1]
        out: dict[str, dict] = {}
        for span in self.spans:
            row = out.setdefault(span[0], {"calls": 0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += span[2] - span[1] - child_time.get(id(span), 0.0)
        return out

    def export(self) -> list[dict]:
        """Spans as JSON-shaped rows; ``parent`` is a row index."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        return [
            {
                "name": name,
                "start": start,
                "end": end,
                "parent": None if parent is None else index[id(parent)],
                "request": request,
            }
            for name, start, end, parent, request in self.spans
        ]
