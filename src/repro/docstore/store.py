"""Collections and the document store (MongoDB analog).

Documents are plain JSON dicts with a unique ``_id``.  Collections
support insert, Mongo-style find (with the operators implemented in
:mod:`repro.docstore.query`, sorting, skip/limit and projection),
count, distinct, delete and aggregation.  Persistence is the
:class:`repro.durability.Durable` journal and snapshot.
"""

from __future__ import annotations

import copy
import json
from typing import Any, Iterator

from repro.docstore.aggregate import run_pipeline
from repro.docstore.query import compile_query, get_path, sort_key, _MISSING
from repro.exceptions import DocumentStoreError, DuplicateKeyError, QueryError


class Collection:
    """A named collection of JSON documents keyed by ``_id``.

    When ``journal`` is a list (set by the owning
    :class:`DocumentStore` under a durability manager), every mutation
    appends one replayable op dict to it — see
    :class:`repro.durability.Durable`.
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
        if doc_id is None:
            doc_id = self._generate_id()
            stored["_id"] = doc_id
        elif doc_id in self._documents:
            raise DuplicateKeyError(
                f"{self.name}: duplicate _id {doc_id!r}"
            )
        self._documents[doc_id] = stored
        self._log_op(
            {"op": "insert", "c": self.name, "doc": copy.deepcopy(stored)}
        )
        return doc_id

    def find(
        self,
        query: dict | None = None,
        sort: list[tuple[str, int]] | None = None,
        skip: int = 0,
        limit: int | None = None,
        projection: list[str] | None = None,
    ) -> list[dict]:
        """Query the collection.

        Args:
            query: Mongo-style filter (None / {} selects everything).
            sort: list of ``(path, direction)`` with direction +1 / -1.
            skip / limit: pagination.
            projection: keep only these top-level fields (plus ``_id``).
        """
        results = list(self._matching(query or {}))
        if sort:
            for path, direction in reversed(sort):
                if direction not in (1, -1):
                    raise QueryError("sort direction must be 1 or -1")
                results.sort(
                    key=lambda doc: sort_key(get_path(doc, path)),
                    reverse=direction == -1,
                )
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

    def count(self, query: dict | None = None) -> int:
        """Number of matching documents."""
        if not query:
            return len(self._documents)
        return sum(1 for _ in self._matching(query))

    def distinct(self, path: str, query: dict | None = None) -> list:
        """Sorted distinct values at ``path`` across matching documents."""
        seen = set()
        out = []
        for doc in self._matching(query or {}):
            value = get_path(doc, path)
            if value is _MISSING:
                continue
            values = value if isinstance(value, list) else [value]
            for item in values:
                key = json.dumps(item, sort_keys=True, default=str)
                if key not in seen:
                    seen.add(key)
                    out.append(item)
        return sorted(out, key=lambda v: json.dumps(v, default=str))

    def delete_one(self, query: dict) -> int:
        """Delete the first match; returns 0 or 1."""
        for doc in self._matching(query):
            doc_id = doc["_id"]
            del self._documents[doc_id]
            self._log_op({"op": "delete", "c": self.name, "id": doc_id})
            return 1
        return 0

    def aggregate(self, pipeline: list[dict]) -> list[dict]:
        """Run an aggregation pipeline over the collection.

        See :mod:`repro.docstore.aggregate` for supported stages.
        """
        return run_pipeline(self._documents.values(), pipeline)

    def __len__(self) -> int:
        return len(self._documents)

    def __iter__(self) -> Iterator[dict]:
        return iter(copy.deepcopy(list(self._documents.values())))

    def _generate_id(self) -> str:
        while True:
            self._id_seq += 1
            candidate = f"{self.name}-{self._id_seq:08d}"
            if candidate not in self._documents:
                return candidate

    def _log_op(self, op: dict) -> None:
        if self.journal is not None:
            self.journal.append(op)

    def _matching(self, query: dict) -> Iterator[dict]:
        predicate = compile_query(query)
        for doc in self._documents.values():
            if predicate(doc):
                yield doc


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
            self._collections[name] = existing
            if self._journal is not None:
                self._journal.append({"op": "ensure", "c": name})
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
            coll.delete_one({"_id": op["id"]})
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
