"""Exception hierarchy shared across the repro package.

Every subsystem raises subclasses of :class:`ReproError` so callers can
catch one base type at API boundaries while still being able to
distinguish failure modes precisely in tests.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class SchemaError(ReproError):
    """A type label or relation violates the clinical typing schema."""


class AnnotationError(ReproError):
    """Malformed standoff annotation data (BRAT .ann)."""


class SpanError(AnnotationError):
    """A text-bound span is inconsistent with its document text."""


class DocumentStoreError(ReproError):
    """Base error for the document store (MongoDB analog)."""


class DuplicateKeyError(DocumentStoreError):
    """An _id that already exists was inserted again."""


class QueryError(DocumentStoreError):
    """A document-store query uses an unknown operator or bad operand."""


class SearchError(ReproError):
    """Base error for the full-text search engine (ElasticSearch analog)."""


class AnalyzerError(SearchError):
    """An analysis chain was configured with unknown components."""


class GraphError(ReproError):
    """Base error for the property graph store (Neo4j analog)."""


class CypherError(GraphError):
    """A mini-Cypher query failed to parse or execute."""


class ParseError(ReproError):
    """A publication document (SimPDF / TEI XML) could not be parsed."""


class TransientParseError(ParseError):
    """A retryable parse-service failure (timeouts, overload).

    The real Grobid is a remote service; callers are expected to retry
    a bounded number of times before dead-lettering the document.
    """


class StageFailure(ReproError):
    """One document failed in one named pipeline stage.

    Carries everything a dead-letter record needs — the stage, the
    original error's type name and message, and how many attempts were
    made — as plain strings so the failure crosses process boundaries.
    """

    def __init__(
        self, stage: str, error_type: str, message: str, attempts: int = 1
    ):
        super().__init__(f"{stage} failed ({error_type}): {message}")
        self.stage = stage
        self.error_type = error_type
        self.message = message
        self.attempts = attempts

    def __reduce__(self):
        return (
            StageFailure,
            (self.stage, self.error_type, self.message, self.attempts),
        )


class DurabilityError(ReproError):
    """The write-ahead log or snapshot machinery failed.

    Raised for failed flushes (the commit was *not* acknowledged),
    corrupt snapshots, and attempts to commit through a manager that
    has been poisoned by an earlier disk error.
    """


class CrawlError(ReproError):
    """The crawler could not fetch or process a URL."""


class ModelError(ReproError):
    """An ML model was used before fitting, or with bad shapes."""


class NotFittedError(ModelError):
    """Predict/transform called on an unfitted model."""


class TemporalInconsistencyError(ReproError):
    """A temporal graph contains contradictory relations."""


class PipelineError(ReproError):
    """End-to-end pipeline orchestration failure."""


class CohortError(ReproError):
    """Malformed cohort definition or criterion."""


class ReviewError(ReproError):
    """Invalid review-queue operation (unknown claim, bad decision)."""


class ApiError(ReproError):
    """Application-facade request failure, carries an HTTP-like status."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message
