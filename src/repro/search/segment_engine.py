"""Segment-backed search engine: immutable segments + write buffer.

:class:`SegmentSearchEngine` keeps recent documents in the inherited
in-memory field indexes (the *write buffer*) and periodically seals the
buffer into an immutable on-disk :mod:`~repro.search.segments` file.
Queries run over a :class:`CompositeFieldIndex` that unions the sealed
segments (read through mmap, scored with vectorized numpy BM25) with
the buffer (scored with the scalar path), producing **bit-identical**
scores to the plain in-memory :class:`~repro.search.engine.SearchEngine`
— the float expression trees are associated identically, corpus
statistics are computed from the same live integers, and per-document
accumulation happens in the same term order.

Deletes never touch a sealed file: they flip a bit in the engine's
delete bitmap, persisted in ``manifest.json`` next to the segments.
Merges compact sealed segments (dropping deleted rows) into a new file
and atomically swap the manifest.  The manifest carries a generation
counter that moves on every flush, sealed delete and merge.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.exceptions import SearchError
from repro.search.analysis import CREATE_IR_FIELD_ANALYZERS
from repro.search.bm25 import BM25Scorer
from repro.search.engine import ScoredHit, SearchEngine
from repro.search.inverted_index import InvertedIndex, Posting
from repro.search.segments import Segment, merge_segments, write_segment

MANIFEST_NAME = "manifest.json"


@dataclass
class _SegmentState:
    """A sealed segment plus its (mutable, off-file) delete bitmap."""

    file: str
    segment: Segment
    deleted: np.ndarray  # bool per row

    @property
    def has_deletes(self) -> bool:
        return bool(self.deleted.any())

    @property
    def n_live(self) -> int:
        return int(np.count_nonzero(~self.deleted))


class CompositeFieldIndex:
    """One field's buffer + sealed segments behind the InvertedIndex API.

    Reads (postings, positions, per-doc lengths) resolve against
    whichever tier holds the document; corpus statistics (``N``, ``df``,
    total length) sum live documents across every tier.

    The extra :meth:`bm25_scores` / :meth:`bm25_score_arrays` methods
    are the vectorized scoring fast path;
    :class:`~repro.search.bm25.BM25Scorer` delegates to them when
    present.
    """

    __slots__ = ("_field", "_buffer", "_states", "_size")

    def __init__(
        self,
        field_name: str,
        buffer: InvertedIndex,
        states: list[_SegmentState],
        size: int,
    ):
        self._field = field_name
        self._buffer = buffer
        self._states = states
        self._size = size

    def _field_readers(self):
        for state in self._states:
            reader = state.segment.fields.get(self._field)
            if reader is not None:
                yield state, reader

    def _locate(self, doc_ord: int):
        for state in self._states:
            segment = state.segment
            if segment.base_ord <= doc_ord <= segment.max_ord:
                row = segment.row_of(doc_ord)
                if row >= 0:
                    return state, row
        return None

    # -- corpus statistics ---------------------------------------------------

    @property
    def n_documents(self) -> int:
        n = self._buffer.n_documents
        for state, reader in self._field_readers():
            mask = np.asarray(reader.has_field, dtype=bool)
            if state.has_deletes:
                mask = mask & ~state.deleted
            n += int(np.count_nonzero(mask))
        return n

    @property
    def total_length(self) -> int:
        total = self._buffer.total_length
        for state, reader in self._field_readers():
            mask = np.asarray(reader.has_field, dtype=bool)
            if state.has_deletes:
                mask = mask & ~state.deleted
            total += int(np.asarray(reader.doc_lens)[mask].sum())
        return total

    @property
    def average_length(self) -> float:
        n = self.n_documents
        if not n:
            return 0.0
        return self.total_length / n

    def document_frequency(self, term: str) -> int:
        df = self._buffer.document_frequency(term)
        for state, reader in self._field_readers():
            decoded = reader.postings_arrays(term)
            if decoded is None:
                continue
            rows = decoded[0]
            if state.has_deletes:
                df += int(np.count_nonzero(~state.deleted[rows]))
            else:
                df += len(rows)
        return df

    # -- per-document reads --------------------------------------------------

    def doc_length(self, doc_ord: int) -> int:
        if self._buffer.has_document(doc_ord):
            return self._buffer.doc_length(doc_ord)
        located = self._locate(doc_ord)
        if located is None:
            return 0
        state, row = located
        if state.deleted[row]:
            return 0
        reader = state.segment.fields.get(self._field)
        if reader is None or not reader.has_field[row]:
            return 0
        return int(reader.doc_lens[row])

    def postings(self, term: str) -> list[Posting]:
        """Live postings in ordinal order (sealed tiers, then buffer —
        buffered ordinals are always newer, hence larger)."""
        out: list[Posting] = []
        for state, reader in self._field_readers():
            decoded = reader.postings_arrays(term)
            if decoded is None:
                continue
            rows, _tfs, first = decoded
            for local, row in enumerate(rows.tolist()):
                if state.deleted[row]:
                    continue
                positions = reader.posting_positions(first + local)
                out.append(
                    Posting(
                        int(state.segment.ords[row]),
                        [int(p) for p in positions],
                    )
                )
        out.extend(self._buffer.postings(term))
        return out

    def phrase_positions(
        self,
        doc_ord: int,
        terms: Sequence[str],
        offsets: Sequence[int] | None = None,
    ) -> list[int]:
        """Same contract as :meth:`InvertedIndex.phrase_positions`."""
        if self._buffer.has_document(doc_ord):
            return self._buffer.phrase_positions(doc_ord, terms, offsets)
        if not terms:
            return []
        if offsets is None:
            relative: Sequence[int] = range(len(terms))
        else:
            if len(offsets) != len(terms):
                raise ValueError("offsets/terms length mismatch")
            base = offsets[0]
            relative = [offset - base for offset in offsets]
        located = self._locate(doc_ord)
        if located is None:
            return []
        state, row = located
        if state.deleted[row]:
            return []
        reader = state.segment.fields.get(self._field)
        if reader is None:
            return []
        position_lists = []
        for term in terms:
            decoded = reader.postings_arrays(term)
            if decoded is None:
                return []
            rows, _tfs, first = decoded
            i = int(np.searchsorted(rows, row))
            if i >= len(rows) or int(rows[i]) != row:
                return []
            position_lists.append(
                set(reader.posting_positions(first + i).tolist())
            )
        first_positions = position_lists[0]
        hits = []
        for start in sorted(first_positions):
            if all(
                (start + relative[i]) in position_lists[i]
                for i in range(1, len(terms))
            ):
                hits.append(start)
        return hits

    # -- vectorized scoring --------------------------------------------------

    def bm25_scores(
        self, terms: Sequence[str], k1: float, b: float
    ) -> dict[int, float]:
        """Accumulated BM25 per live ordinal, bit-identical to the
        scalar :meth:`BM25Scorer.score_terms` loop."""
        ords, scores = self.bm25_score_arrays(terms, k1, b)
        return dict(zip(ords.tolist(), scores.tolist()))

    def bm25_score_arrays(
        self, terms: Sequence[str], k1: float, b: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(ordinals, scores)`` arrays for a bag of terms.

        Bit-identity with the scalar loop holds because (a) the numpy
        expressions below associate exactly as the scalar ones in
        :meth:`BM25Scorer.score_terms`, (b) ``N``/``df``/``avgdl`` are
        derived from the same live integers, and (c) each ordinal
        receives its per-term contributions in the same term order
        (one contribution per term per document; tiers are disjoint).
        """
        acc = np.zeros(self._size, dtype=np.float64)
        touched = np.zeros(self._size, dtype=bool)
        n = self.n_documents
        total = self.total_length
        avg_len = (total / n if n else 0.0) or 1.0
        for term in terms:
            df = self.document_frequency(term)
            idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
            for state, reader in self._field_readers():
                decoded = reader.postings_arrays(term)
                if decoded is None:
                    continue
                rows, tfs, _first = decoded
                if state.has_deletes:
                    live = ~state.deleted[rows]
                    rows = rows[live]
                    tfs = tfs[live]
                if not len(rows):
                    continue
                tf_f = tfs.astype(np.float64)
                dl = np.asarray(reader.doc_lens)[rows].astype(np.float64)
                denom = tf_f + k1 * (1.0 - b + (b * dl) / avg_len)
                contrib = idf * tf_f * (k1 + 1.0) / denom
                ords_arr = state.segment.ords[rows]
                acc[ords_arr] += contrib
                touched[ords_arr] = True
            for posting in self._buffer.postings(term):
                tf = posting.term_frequency
                doc_len = self._buffer.doc_length(posting.doc_ord)
                denom = tf + k1 * (1.0 - b + b * doc_len / avg_len)
                acc[posting.doc_ord] += idf * tf * (k1 + 1.0) / denom
                touched[posting.doc_ord] = True
        live_ords = np.flatnonzero(touched)
        return live_ords, acc[live_ords]


class SegmentSearchEngine(SearchEngine):
    """A :class:`SearchEngine` whose sealed documents live in immutable
    on-disk segments.

    Args:
        segment_dir: directory for segment files and ``manifest.json``;
            an existing manifest is loaded (sealed documents come back
            on reopen, buffered ones do not).
        flush_threshold: buffered documents that trigger an automatic
            :meth:`flush`.
        merge_factor: sealed segment count that triggers a compaction
            merge after a flush.

    Example:
        >>> import tempfile
        >>> engine = SegmentSearchEngine(segment_dir=tempfile.mkdtemp())
        >>> engine.index("d1", {"body": "fever and cough"})
        >>> engine.flush() is not None
        True
        >>> [hit.doc_id for hit in engine.search("fever")]
        ['d1']
    """

    def __init__(
        self,
        field_analyzers: dict[str, dict] | None = None,
        default_field: str = "body",
        metrics=None,
        *,
        segment_dir: str,
        flush_threshold: int = 4096,
        merge_factor: int = 8,
    ):
        super().__init__(field_analyzers, default_field, metrics)
        self.segment_dir = str(segment_dir)
        os.makedirs(self.segment_dir, exist_ok=True)
        self.flush_threshold = max(1, int(flush_threshold))
        self.merge_factor = max(2, int(merge_factor))
        self._states: list[_SegmentState] = []
        self._generation = 0
        self._seg_counter = 0
        self._manifest_ordinal = 0  # the ordinal clock as last persisted
        self._load_manifest()

    # -- manifest ----------------------------------------------------------

    @property
    def generation(self) -> int:
        """Manifest generation; moves on every flush/delete/merge."""
        return self._generation

    @property
    def n_segments(self) -> int:
        return len(self._states)

    def _manifest_path(self) -> str:
        return os.path.join(self.segment_dir, MANIFEST_NAME)

    def _load_manifest(self) -> None:
        path = self._manifest_path()
        if not os.path.exists(path):
            return
        with open(path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        self._generation = int(manifest["generation"])
        self._seg_counter = int(manifest["seg_counter"])
        self._manifest_ordinal = int(manifest["next_ordinal"])
        self._next_ordinal = self._manifest_ordinal
        for entry in manifest["segments"]:
            segment = Segment.open(
                os.path.join(self.segment_dir, entry["file"])
            )
            deleted = np.zeros(segment.n_docs, dtype=bool)
            if entry["deleted"]:
                deleted[np.asarray(entry["deleted"], dtype=np.int64)] = True
            self._states.append(
                _SegmentState(entry["file"], segment, deleted)
            )
            for row in np.flatnonzero(~deleted).tolist():
                self._ordinals[segment.doc_ids[row]] = int(
                    segment.ords[row]
                )

    def _write_manifest(self) -> None:
        self._generation += 1
        manifest = {
            "generation": self._generation,
            "seg_counter": self._seg_counter,
            "next_ordinal": self._next_ordinal,
            "segments": [
                {
                    "file": state.file,
                    "deleted": np.flatnonzero(state.deleted).tolist(),
                }
                for state in self._states
            ],
        }
        path = self._manifest_path()
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        self._manifest_ordinal = self._next_ordinal

    # -- mutation ----------------------------------------------------------

    def index(self, doc_id: Any, fields: dict[str, str]) -> None:
        super().index(doc_id, fields)
        if len(self._ids_by_ordinal) >= self.flush_threshold:
            self.flush()

    def delete(self, doc_id: Any) -> bool:
        ordinal = self._ordinals.get(doc_id)
        if ordinal is None:
            return False
        if ordinal in self._ids_by_ordinal:
            return super().delete(doc_id)
        del self._ordinals[doc_id]
        state, row = self._locate_state(ordinal)
        state.deleted[row] = True
        self._write_manifest()
        self.epoch += 1
        return True

    def flush(self) -> str | None:
        """Seal the write buffer into a new segment file.

        Returns the segment file name, or None when the buffer is
        empty.  May trigger a compaction merge (``merge_factor``).
        """
        if not self._ids_by_ordinal:
            # A document indexed and deleted while still buffered left
            # no segment behind but did consume an ordinal; a reopen
            # that forgot it would hand the ordinal out again.
            if self._next_ordinal > self._manifest_ordinal:
                self._write_manifest()
            return None
        buffered = sorted(self._ids_by_ordinal.items())
        docs = [
            (ordinal, doc_id, self._sources[doc_id])
            for ordinal, doc_id in buffered
        ]
        name = f"seg-{self._seg_counter:06d}.seg"
        self._seg_counter += 1
        path = os.path.join(self.segment_dir, name)
        write_segment(path, docs, self._indexes)
        segment = Segment.open(path)
        self._states.append(
            _SegmentState(name, segment, np.zeros(segment.n_docs, dtype=bool))
        )
        self._indexes.clear()
        self._sources.clear()
        self._ids_by_ordinal.clear()
        self._write_manifest()
        if len(self._states) >= self.merge_factor:
            self.merge()
        return name

    def merge(self) -> str | None:
        """Compact every sealed segment into one, dropping deletes."""
        if not self._states:
            return None
        old = self._states
        if sum(state.n_live for state in old) == 0:
            self._states = []
            self._write_manifest()
            for state in old:
                state.segment.close()
                os.remove(os.path.join(self.segment_dir, state.file))
            return None
        name = f"seg-{self._seg_counter:06d}.seg"
        self._seg_counter += 1
        path = os.path.join(self.segment_dir, name)
        merge_segments(
            path,
            [
                (
                    state.segment,
                    state.deleted if state.has_deletes else None,
                )
                for state in old
            ],
        )
        segment = Segment.open(path)
        self._states = [
            _SegmentState(name, segment, np.zeros(segment.n_docs, dtype=bool))
        ]
        self._write_manifest()
        for state in old:
            state.segment.close()
            os.remove(os.path.join(self.segment_dir, state.file))
        return name

    def close(self) -> None:
        """Release segment mmaps (the files stay on disk)."""
        for state in self._states:
            state.segment.close()
        self._states = []

    @property
    def n_documents(self) -> int:
        return len(self._ordinals)

    # -- document resolution hooks ----------------------------------------

    def _locate_state(self, ordinal: int) -> tuple[_SegmentState, int]:
        for state in self._states:
            segment = state.segment
            if segment.base_ord <= ordinal <= segment.max_ord:
                row = segment.row_of(ordinal)
                if row >= 0:
                    return state, row
        raise SearchError(f"ordinal {ordinal} not found in any segment")

    def _doc_id_of(self, ordinal: int) -> Any | None:
        doc_id = self._ids_by_ordinal.get(ordinal)
        if doc_id is not None:
            return doc_id
        try:
            state, row = self._locate_state(ordinal)
        except SearchError:
            return None
        if state.deleted[row]:
            return None
        return state.segment.doc_ids[row]

    def _source(self, doc_id: Any) -> dict:
        source = self._sources.get(doc_id)
        if source is not None:
            return source
        ordinal = self._ordinals.get(doc_id)
        if ordinal is None:
            return {}
        state, row = self._locate_state(ordinal)
        return state.segment.stored(row)

    def _all_live_ordinals(self):
        ords: list[int] = []
        for state in self._states:
            if state.has_deletes:
                ords.extend(state.segment.ords[~state.deleted].tolist())
            else:
                ords.extend(state.segment.ords.tolist())
        ords.extend(self._ids_by_ordinal)
        return ords

    def _scoring_index(self, field_name: str) -> CompositeFieldIndex:
        return CompositeFieldIndex(
            field_name,
            self._field_index(field_name),
            self._states,
            self._next_ordinal,
        )

    # -- search ------------------------------------------------------------

    def search(self, query: str | dict, size: int = 10) -> list[ScoredHit]:
        if isinstance(query, str):
            query = {"match": {self.default_field: query}}
        fast = self._match_topk(query, size)
        if fast is not None:
            return fast
        return super().search(query, size)

    def _match_topk(
        self, query: dict, size: int
    ) -> list[ScoredHit] | None:
        """Array top-k for plain ``match`` queries: select candidates
        with ``argpartition`` instead of sorting every scored document.
        Produces exactly the generic path's ranking — the partition
        keeps every candidate tied with the k-th score, and the final
        ordering uses the same ``(-score, str(doc_id))`` sort."""
        if (
            not isinstance(query, dict)
            or len(query) != 1
            or "match" not in query
        ):
            return None
        body = query["match"]
        if not isinstance(body, dict) or len(body) != 1:
            return None
        start = time.perf_counter()
        ((field_name, text),) = body.items()
        terms = self._analyzer_for(field_name).terms(str(text))
        composite = self._scoring_index(field_name)
        scorer = BM25Scorer(composite)
        if terms:
            ords, scores = composite.bm25_score_arrays(
                terms, scorer.k1, scorer.b
            )
        else:
            ords = np.zeros(0, dtype=np.int64)
            scores = np.zeros(0, dtype=np.float64)
        if size > 0 and len(ords) > size:
            kth = np.partition(scores, len(scores) - size)[
                len(scores) - size
            ]
            keep = scores >= kth
            ords = ords[keep]
            scores = scores[keep]
        return self._rank(zip(ords.tolist(), scores.tolist()), size, start)


def create_segment_ir_engine(
    segment_dir: str, **kwargs
) -> SegmentSearchEngine:
    """A :class:`SegmentSearchEngine` with the paper's CREATe-IR field
    analyzers (n-gram body, standard title)."""
    return SegmentSearchEngine(
        CREATE_IR_FIELD_ANALYZERS,
        default_field="body",
        segment_dir=segment_dir,
        **kwargs,
    )
