"""Embeddable JSON document store: the MongoDB analog.

CREATe persists case reports, annotations and user submissions in
MongoDB behind the Express backend; this package supplies the same role
in-process: named collections of JSON records keyed by ``_id``, read by
primary key or by a scan with a caller's predicate, made durable by the
write-ahead journal and snapshot of :mod:`repro.durability`.
"""

from repro.docstore.store import Collection, DocumentStore

__all__ = ["Collection", "DocumentStore"]
