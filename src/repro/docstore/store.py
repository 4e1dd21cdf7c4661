"""Collections and the document store (MongoDB analog).

Documents are plain JSON dicts with a unique ``_id``.  A collection is
a keyed record store: insert, primary-key get and delete, and a scan
that filters with a caller's Python predicate and returns copies in
``_id`` order.  It interprets no query format.  Persistence is the
:class:`repro.durability.Durable` journal and snapshot.
"""

from __future__ import annotations

import copy
import json
from typing import Any, Callable, Iterator

from repro.durability.wal import encode_record
from repro.exceptions import DocumentStoreError, DuplicateKeyError


def sort_key(value: Any):
    """Total order over heterogeneous JSON values (None < bool < numbers
    < str < list < dict), mirroring Mongo's BSON type ordering loosely."""
    if value is None:
        return (0, "")
    if isinstance(value, bool):
        return (1, value)
    if isinstance(value, (int, float)):
        return (2, value)
    if isinstance(value, str):
        return (3, value)
    if isinstance(value, list):
        return (4, json.dumps(value, default=str))
    return (5, json.dumps(value, sort_keys=True, default=str))


class Collection:
    """A named collection of JSON documents keyed by ``_id``.

    When ``journal`` is a list (set by the owning
    :class:`DocumentStore` under a durability manager), every mutation
    appends one replayable op dict to it — see
    :class:`repro.durability.Durable`.  A mutation builds and encodes
    its op before it touches memory, then applies, then appends: an op
    the WAL cannot encode raises with the collection unchanged.
    """

    def __init__(self, name: str):
        self.name = name
        self._documents: dict[Any, dict] = {}
        self._id_seq = 0
        self.journal: list | None = None

    def insert_one(self, document: dict) -> Any:
        """Insert a document; auto-assigns ``_id`` when absent.

        Returns the document's ``_id``.

        Raises:
            DuplicateKeyError: an explicit ``_id`` already exists.
        """
        if not isinstance(document, dict):
            raise DocumentStoreError("documents must be dicts")
        stored = copy.deepcopy(document)
        doc_id = stored.get("_id")
        seq = self._id_seq
        if doc_id is None:
            seq = self._next_seq()
            doc_id = stored["_id"] = self._id_for(seq)
        elif doc_id in self._documents:
            raise DuplicateKeyError(
                f"{self.name}: duplicate _id {doc_id!r}"
            )
        op = self._encoded(
            {"op": "insert", "c": self.name, "doc": copy.deepcopy(stored)}
        )
        self._id_seq = seq
        self._documents[doc_id] = stored
        self._log_op(op)
        return doc_id

    def find(
        self,
        where: Callable[[dict], bool] | None = None,
        skip: int = 0,
        limit: int | None = None,
        projection: list[str] | None = None,
    ) -> list[dict]:
        """Copies of the documents ``where`` admits, in ``_id`` order.

        Args:
            where: predicate run on each stored document before any
                copy (None selects everything); it must not mutate.
            skip / limit: pagination.
            projection: keep only these top-level fields (plus ``_id``).
        """
        results = [
            doc
            for doc in self._documents.values()
            if where is None or where(doc)
        ]
        results.sort(key=lambda doc: sort_key(doc["_id"]))
        if skip:
            results = results[skip:]
        if limit is not None:
            results = results[:limit]
        if projection is not None:
            keep = set(projection) | {"_id"}
            results = [
                {k: v for k, v in doc.items() if k in keep}
                for doc in results
            ]
        return [copy.deepcopy(doc) for doc in results]

    def get(self, doc_id: Any) -> dict | None:
        """Primary-key lookup."""
        doc = self._documents.get(doc_id)
        return copy.deepcopy(doc) if doc is not None else None

    def delete_one(self, doc_id: Any) -> int:
        """Delete the document with ``_id`` ``doc_id``; returns 0 or 1."""
        if doc_id not in self._documents:
            return 0
        op = self._encoded({"op": "delete", "c": self.name, "id": doc_id})
        del self._documents[doc_id]
        self._log_op(op)
        return 1

    def __len__(self) -> int:
        return len(self._documents)

    def __iter__(self) -> Iterator[dict]:
        return iter(copy.deepcopy(list(self._documents.values())))

    def next_id(self) -> str:
        """The ``_id`` the next :meth:`insert_one` of a document without
        one assigns (the collection is not changed)."""
        return self._id_for(self._next_seq())

    def _next_seq(self) -> int:
        seq = self._id_seq + 1
        while self._id_for(seq) in self._documents:
            seq += 1
        return seq

    def _id_for(self, seq: int) -> str:
        return f"{self.name}-{seq:08d}"

    def _encoded(self, op: dict) -> dict:
        """``op``, once the WAL is known to hold it: journaled, it is
        encoded here, before the caller touches memory, so an op that
        cannot be encoded raises with nothing changed."""
        if self.journal is not None:
            encode_record(op)
        return op

    def _log_op(self, op: dict) -> None:
        if self.journal is not None:
            self.journal.append(op)


class DocumentStore:
    """A set of named collections behind one durability journal.

    Example:
        >>> store = DocumentStore()
        >>> reports = store.collection("reports")
        >>> _ = reports.insert_one({"title": "case 1"})
    """

    def __init__(self):
        self._collections: dict[str, Collection] = {}
        self._journal: list | None = None

    @property
    def journal(self) -> list | None:
        """Durability journal; assigning propagates to all collections."""
        return self._journal

    @journal.setter
    def journal(self, value: list | None) -> None:
        self._journal = value
        for coll in self._collections.values():
            coll.journal = value

    def collection(self, name: str) -> Collection:
        """Get or create a collection."""
        existing = self._collections.get(name)
        if existing is None:
            existing = Collection(name)
            existing.journal = self._journal
            op = existing._encoded({"op": "ensure", "c": name})
            self._collections[name] = existing
            existing._log_op(op)
        return existing

    def collection_names(self) -> list[str]:
        """Sorted collection names."""
        return sorted(self._collections)

    # -- durability (repro.durability.Durable protocol) -----------------------

    def durable_apply(self, op: dict) -> None:
        """Replay one journaled ``ensure`` / ``insert`` / ``delete`` op
        (journal suspended by the manager)."""
        kind = op["op"]
        coll = self.collection(op["c"])
        if kind == "insert":
            coll.insert_one(op["doc"])
        elif kind == "delete":
            coll.delete_one(op["id"])
        elif kind != "ensure":
            raise DocumentStoreError(f"unknown journal op: {kind!r}")

    def durable_snapshot(self) -> dict:
        """JSON-shaped full state (documents and id sequences)."""
        return {
            "collections": {
                name: {
                    "documents": [
                        copy.deepcopy(doc)
                        for doc in coll._documents.values()
                    ],
                    "id_seq": coll._id_seq,
                }
                for name, coll in self._collections.items()
            }
        }

    def durable_restore(self, state: dict) -> None:
        """Replace this (empty) store's contents with a snapshot state."""
        self._collections.clear()
        for name, payload in state.get("collections", {}).items():
            coll = self.collection(name)
            for doc in payload.get("documents", ()):
                coll.insert_one(doc)
            coll._id_seq = int(payload.get("id_seq", 0))
