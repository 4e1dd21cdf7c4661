"""Embeddable JSON document store: the MongoDB analog.

CREATe persists case reports, annotations and user submissions in
MongoDB behind the Express backend; this package supplies the same role
in-process: named collections of JSON documents with Mongo-style query
operators and aggregation, made durable by the write-ahead journal and
snapshot of :mod:`repro.durability`.
"""

from repro.docstore.store import Collection, DocumentStore
from repro.docstore.query import matches, compile_query
from repro.docstore.aggregate import run_pipeline

__all__ = [
    "Collection",
    "DocumentStore",
    "matches",
    "compile_query",
    "run_pipeline",
]
