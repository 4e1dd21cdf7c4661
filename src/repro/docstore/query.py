"""Mongo-style query predicate evaluation and value order.

Supported operators: ``$eq $ne $gt $gte $lt $lte $in $nin $exists
$regex $size $all $elemMatch $not`` plus the logical combinators
``$and $or $nor`` and implicit field equality.  Dotted paths descend
into nested documents and arrays.  :func:`sort_key` is the one total
order over JSON values that ``find``, ``$sort`` and Cypher ``ORDER BY``
share.
"""

from __future__ import annotations

import json
import re
from typing import Any, Callable

from repro.exceptions import QueryError

Predicate = Callable[[dict], bool]

_MISSING = object()


def get_path(document: Any, path: str) -> Any:
    """Resolve a dotted path; returns the ``_MISSING`` sentinel if absent.

    Array semantics follow MongoDB: a numeric segment indexes the array;
    a non-numeric segment maps over array elements (returning the list
    of resolved values).
    """
    current = document
    for segment in path.split("."):
        if isinstance(current, dict):
            if segment not in current:
                return _MISSING
            current = current[segment]
        elif isinstance(current, list):
            if segment.isdigit():
                idx = int(segment)
                if idx >= len(current):
                    return _MISSING
                current = current[idx]
            else:
                values = [
                    item[segment]
                    for item in current
                    if isinstance(item, dict) and segment in item
                ]
                if not values:
                    return _MISSING
                current = values
        else:
            return _MISSING
    return current


def sort_key(value: Any):
    """Total order over heterogeneous JSON values (None < bool < numbers
    < str < list < dict), mirroring Mongo's BSON type ordering loosely."""
    if value is _MISSING or value is None:
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


def _values_match(value: Any, check: Callable[[Any], bool]) -> bool:
    """Mongo equality semantics: a field holding an array matches when
    any element matches (or the array itself does)."""
    if check(value):
        return True
    if isinstance(value, list):
        return any(check(item) for item in value)
    return False


def _comparable(a: Any, b: Any) -> bool:
    """Guard ordered comparisons against cross-type TypeErrors."""
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool)
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return True
    return type(a) is type(b)


def _compile_operator(path: str, op: str, operand: Any) -> Predicate:
    if op == "$eq":
        return lambda doc: _values_match(
            get_path(doc, path), lambda v: v == operand
        )
    if op == "$ne":
        eq = _compile_operator(path, "$eq", operand)
        return lambda doc: not eq(doc)
    if op in ("$gt", "$gte", "$lt", "$lte"):
        import operator as op_mod

        fn = {
            "$gt": op_mod.gt,
            "$gte": op_mod.ge,
            "$lt": op_mod.lt,
            "$lte": op_mod.le,
        }[op]

        def ordered(doc: dict) -> bool:
            value = get_path(doc, path)
            return _values_match(
                value,
                lambda v: _comparable(v, operand) and fn(v, operand),
            )

        return ordered
    if op == "$in":
        if not isinstance(operand, (list, tuple, set, frozenset)):
            raise QueryError("$in requires a list operand")
        members = list(operand)
        return lambda doc: _values_match(
            get_path(doc, path), lambda v: v in members
        )
    if op == "$nin":
        inside = _compile_operator(path, "$in", operand)
        return lambda doc: not inside(doc)
    if op == "$exists":
        want = bool(operand)
        return lambda doc: (get_path(doc, path) is not _MISSING) == want
    if op == "$regex":
        pattern = re.compile(operand)
        return lambda doc: _values_match(
            get_path(doc, path),
            lambda v: isinstance(v, str) and pattern.search(v) is not None,
        )
    if op == "$size":
        if not isinstance(operand, int):
            raise QueryError("$size requires an integer operand")

        def size_check(doc: dict) -> bool:
            value = get_path(doc, path)
            return isinstance(value, list) and len(value) == operand

        return size_check
    if op == "$all":
        if not isinstance(operand, list):
            raise QueryError("$all requires a list operand")

        def all_check(doc: dict) -> bool:
            value = get_path(doc, path)
            if not isinstance(value, list):
                return False
            return all(item in value for item in operand)

        return all_check
    if op == "$elemMatch":
        if not isinstance(operand, dict):
            raise QueryError("$elemMatch requires a query operand")
        inner = compile_query(operand)

        def elem_check(doc: dict) -> bool:
            value = get_path(doc, path)
            if not isinstance(value, list):
                return False
            return any(isinstance(item, dict) and inner(item) for item in value)

        return elem_check
    if op == "$not":
        if isinstance(operand, dict):
            inner_pred = _compile_field(path, operand)
        else:
            inner_pred = _compile_operator(path, "$eq", operand)
        return lambda doc: not inner_pred(doc)
    raise QueryError(f"unknown query operator: {op!r}")


def _compile_field(path: str, condition: Any) -> Predicate:
    """Compile one ``field: condition`` pair."""
    if isinstance(condition, dict) and any(
        key.startswith("$") for key in condition
    ):
        predicates = [
            _compile_operator(path, op, operand)
            for op, operand in condition.items()
        ]
        return lambda doc: all(pred(doc) for pred in predicates)
    # Implicit equality (including equality against a literal dict).
    return _compile_operator(path, "$eq", condition)


def compile_query(query: dict) -> Predicate:
    """Compile a query dict into a reusable predicate function.

    Raises:
        QueryError: unknown operators or malformed operands.
    """
    if not isinstance(query, dict):
        raise QueryError("query must be a dict")
    predicates: list[Predicate] = []
    for key, condition in query.items():
        if key == "$and":
            subs = [compile_query(sub) for sub in condition]
            predicates.append(
                lambda doc, subs=subs: all(sub(doc) for sub in subs)
            )
        elif key == "$or":
            subs = [compile_query(sub) for sub in condition]
            predicates.append(
                lambda doc, subs=subs: any(sub(doc) for sub in subs)
            )
        elif key == "$nor":
            subs = [compile_query(sub) for sub in condition]
            predicates.append(
                lambda doc, subs=subs: not any(sub(doc) for sub in subs)
            )
        elif key.startswith("$"):
            raise QueryError(f"unknown top-level operator: {key!r}")
        else:
            predicates.append(_compile_field(key, condition))
    return lambda doc: all(pred(doc) for pred in predicates)


def matches(document: dict, query: dict) -> bool:
    """One-shot evaluation: does ``document`` satisfy ``query``?"""
    return compile_query(query)(document)
