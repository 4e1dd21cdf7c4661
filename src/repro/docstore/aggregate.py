"""Aggregation pipelines for the document store (MongoDB analog).

Supports the stages the CREATe portal's statistics pages and the
cohort engine issue:

* ``{"$match": <query>}`` — filter with the normal query language;
* ``{"$group": {"_id": <expr>, out: {"$count": ...}}}`` — documents
  per group;
* ``{"$sort": {field: 1|-1, ...}}``;
* ``{"$project": {field: 1 | <expr>}}``.

Expressions are ``"$path"`` field references or literals.
"""

from __future__ import annotations

import copy
from typing import Any, Iterable

from repro.docstore.query import _MISSING, compile_query, get_path, sort_key
from repro.exceptions import QueryError


def _resolve(expression: Any, document: dict) -> Any:
    """Evaluate an aggregation expression against a document."""
    if isinstance(expression, str) and expression.startswith("$"):
        value = get_path(document, expression[1:])
        return None if value is _MISSING else value
    if isinstance(expression, dict):
        raise QueryError(f"unsupported expression: {expression!r}")
    return expression


def _freeze(value: Any):
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, list):
        return tuple(_freeze(item) for item in value)
    return value


def run_pipeline(
    documents: Iterable[dict], pipeline: list[dict]
) -> list[dict]:
    """Execute an aggregation pipeline over ``documents``.

    Raises:
        QueryError: unknown stage or accumulator.
    """
    current = list(documents)
    for stage in pipeline:
        if not isinstance(stage, dict) or len(stage) != 1:
            raise QueryError("each stage must be a single-key dict")
        name, body = next(iter(stage.items()))
        if name == "$match":
            predicate = compile_query(body)
            current = [doc for doc in current if predicate(doc)]
        elif name == "$group":
            current = _group(current, body)
        elif name == "$sort":
            for field, direction in reversed(list(body.items())):
                if direction not in (1, -1):
                    raise QueryError("sort direction must be 1 or -1")
                current.sort(
                    key=lambda doc: sort_key(get_path(doc, field)),
                    reverse=direction == -1,
                )
        elif name == "$project":
            current = [_project(doc, body) for doc in current]
        else:
            raise QueryError(f"unknown pipeline stage: {name!r}")
    # Stages only read their input; the copy keeps stored documents
    # out of the caller's hands.
    return copy.deepcopy(current)


def _group(documents: list[dict], spec: dict) -> list[dict]:
    if "_id" not in spec:
        raise QueryError("$group requires an _id expression")
    outputs = [out for out in spec if out != "_id"]
    for out in outputs:
        acc = spec[out]
        if not isinstance(acc, dict) or list(acc) != ["$count"]:
            raise QueryError(f"unknown accumulator: {acc!r}")
    groups: dict[Any, list] = {}  # frozen key -> [key value, count]
    for document in documents:
        key_value = _resolve(spec["_id"], document)
        groups.setdefault(_freeze(key_value), [key_value, 0])[1] += 1
    rows = [
        {"_id": key_value, **{out: count for out in outputs}}
        for key_value, count in groups.values()
    ]
    rows.sort(key=lambda row: sort_key(row["_id"]))
    return rows


def _project(document: dict, spec: dict) -> dict:
    out = {}
    for field, rule in spec.items():
        if rule == 1 or rule is True:
            value = get_path(document, field)
            if value is not _MISSING:
                out[field] = value
        elif rule == 0 or rule is False:
            continue
        else:
            out[field] = _resolve(rule, document)
    if "_id" in document and "_id" not in spec:
        out["_id"] = document["_id"]
    return out
