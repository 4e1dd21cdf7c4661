"""Segment-engine oracle: on-disk segments vs the in-memory engine.

One generated case drives the same index/delete workload — interleaved
with explicit ``flush`` (seal the write buffer into a segment) and
``merge`` (compact segments) schedule points — through a
:class:`~repro.search.segment_engine.SegmentSearchEngine` and a plain
:class:`~repro.search.engine.SearchEngine`, then verifies:

* **Bit-identical scoring** — every query returns the same documents
  with *exactly equal* float scores in the same order, whatever the
  flush/merge/delete schedule.  This is the guarantee that makes the
  segment refactor a pure representation change (scores compare with
  ``==``, not a tolerance).
* **Stored-field round-trip** — hit sources match the indexed fields
  byte for byte after packing through the binary format.
* **Manifest recovery** — optionally the engine is flushed, closed and
  reopened from ``manifest.json`` mid-case; sealed state must come
  back exactly (delete bitmaps included) before mutations continue.
"""

from __future__ import annotations

import shutil
import tempfile
from functools import partial

from repro.search.engine import SearchEngine
from repro.search.segment_engine import SegmentSearchEngine
from repro.testing.lockstep import (
    SEGMENT_OPS,
    apply_ops,
    compare_queries,
    field_analyzers,
    positive_ints,
    valid_workload,
)


def _valid_case(case: dict) -> bool:
    """Structural validation; shrunk cases may violate any of this."""
    return valid_workload(case, SEGMENT_OPS) and positive_ints(
        case, "flush_threshold", "merge_factor"
    )


# Rows compare with == on scores and stored fields: the segment path
# promises bit-identity, not tolerance-level agreement.
_bit_identical = partial(
    compare_queries,
    exact=True,
    row=lambda hit: (hit.doc_id, hit.score, hit.source),
)


def check_segment_case(case: dict) -> str | None:
    """Run one segment workload; ``None`` means all invariants held
    (or the case was structurally malformed — vacuous)."""
    if not _valid_case(case):
        return None
    analyzers = field_analyzers(case)
    segment_dir = tempfile.mkdtemp(prefix="repro-segfuzz-")

    def open_engine():
        return SegmentSearchEngine(
            analyzers,
            segment_dir=segment_dir,
            flush_threshold=case["flush_threshold"],
            merge_factor=case["merge_factor"],
        )

    engine = open_engine()
    reference = SearchEngine(analyzers)
    try:
        message = apply_ops(case["ops"], engine, reference)
        if message is not None:
            return message
        message = _bit_identical(case["queries"], engine, reference, "warm")
        if message is not None:
            return message

        if case.get("reopen"):
            # Seal everything, drop the process state, come back from
            # the manifest alone.
            engine.flush()
            next_ordinal = engine._next_ordinal
            engine.close()
            engine = open_engine()
            if engine._next_ordinal != next_ordinal:
                return (
                    f"manifest reopen lost ordinal clock: "
                    f"{engine._next_ordinal} vs {next_ordinal}"
                )
            if engine.n_documents != reference.n_documents:
                return (
                    f"manifest reopen lost documents: {engine.n_documents}"
                    f" vs {reference.n_documents}"
                )

        message = apply_ops(case["mutations"], engine, reference)
        if message is not None:
            return message
        return _bit_identical(
            case["post_queries"] + case["queries"],
            engine,
            reference,
            "post-mutation",
        )
    finally:
        engine.close()
        shutil.rmtree(segment_dir, ignore_errors=True)
