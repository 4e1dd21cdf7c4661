"""Engine-lockstep kit: one op stream, an engine under test and its
reference, compared after every step.

The ``search``, ``segments`` and ``invariants`` checkers all replay
``index`` / ``delete`` (and, for the segment engine, ``flush`` /
``merge``) ops through a keyword engine beside a reference and compare
rankings.  The shared parts live here once; what differs per checker —
tolerance vs. bit-identity, manifest reopen — stays in the checker.
"""

from __future__ import annotations

from repro.search.analysis import STANDARD_ANALYZER_CONFIG
from repro.testing.oracles import ANALYZER_CONFIGS

OPS = ("index", "delete")
SEGMENT_OPS = OPS + ("flush", "merge")

_TOLERANCE = 1e-8


def close(a: float, b: float) -> bool:
    return abs(a - b) <= _TOLERANCE * (1.0 + max(abs(a), abs(b)))


def field_analyzers(case: dict) -> dict:
    """The per-field analyzer configs every engine in a case shares."""
    return {
        "body": ANALYZER_CONFIGS[case["analyzer"]],
        "title": STANDARD_ANALYZER_CONFIG,
    }


def positive_ints(case: dict, *keys: str) -> bool:
    return all(
        isinstance(case.get(key), int) and case[key] >= 1 for key in keys
    )


def valid_ops(ops, vocabulary=OPS) -> bool:
    """Structural validation; shrunk cases may violate any of this."""
    return isinstance(ops, list) and all(
        isinstance(op, dict)
        and op.get("op") in vocabulary
        and (op["op"] != "index" or isinstance(op.get("fields"), dict))
        for op in ops
    )


def valid_workload(case, vocabulary) -> bool:
    """A seed-ops / queries / mutations / post-queries case."""
    return (
        isinstance(case, dict)
        and case.get("analyzer") in ANALYZER_CONFIGS
        and valid_ops(case.get("ops"), vocabulary)
        and valid_ops(case.get("mutations"), vocabulary)
        and isinstance(case.get("queries"), list)
        and isinstance(case.get("post_queries"), list)
    )


def id_score(hit) -> tuple:
    """Engines return hit objects, the linear-scan oracle plain pairs."""
    return hit if isinstance(hit, tuple) else (hit.doc_id, hit.score)


def search_once(engine, query, size: int = 10, row=id_score):
    """('error', type name) or the ranked hits as ``row`` tuples."""
    try:
        hits = engine.search(query, size=size)
    except Exception as exc:
        return ("error", type(exc).__name__)
    return [row(hit) for hit in hits]


def compare_rankings(query, got, want, label: str, exact: bool = False):
    """``None`` when ``got`` answers ``query`` like ``want``.

    Error verdicts must match by exception type.  ``exact`` demands
    ``==``-equal rows (bit-identical scores, and whatever else ``row``
    carried); otherwise the ids must rank identically and the scores
    agree within tolerance.
    """
    if exact or isinstance(got, tuple) or isinstance(want, tuple):
        if got != want:
            return f"{label} {query!r}: engine {got!r}, oracle {want!r}"
        return None
    if [row[0] for row in got] != [row[0] for row in want]:
        return f"{label} {query!r}: ranking {got!r}, oracle {want!r}"
    for got_row, want_row in zip(got, want):
        if not close(got_row[1], want_row[1]):
            return f"{label} {query!r}: scores diverged {got!r} vs {want!r}"
    return None


def compare_queries(
    queries, engine, reference, label: str, exact: bool = False, row=id_score
):
    """First ranking disagreement over a query batch, or ``None``."""
    for query in queries:
        message = compare_rankings(
            query,
            search_once(engine, query, row=row),
            search_once(reference, query, row=row),
            label,
            exact,
        )
        if message is not None:
            return message
    return None


def apply_ops(ops: list, engine, *references):
    """Replay ``ops`` through ``engine`` and every reference beside it.

    ``flush`` / ``merge`` are schedule points of the engine under test
    only.  Every delete verdict and the document count after every op
    must agree across all of them; the first disagreement is returned.
    """
    engines = (engine, *references)
    for op in ops:
        kind = op["op"]
        if kind == "index":
            for each in engines:
                each.index(op["id"], op["fields"])
        elif kind == "delete":
            verdicts = [each.delete(op["id"]) for each in engines]
            if len(set(verdicts)) > 1:
                return f"delete({op['id']!r}) verdicts diverged: {verdicts}"
        elif kind == "flush":
            engine.flush()
        else:
            engine.merge()
        if references:
            counts = [each.n_documents for each in engines]
            if len(set(counts)) > 1:
                return f"doc count diverged after {op!r}: {counts}"
    return None
