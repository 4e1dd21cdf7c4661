"""On-disk segment format, segment-backed engine, and scale corpus."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.corpus import ScaleDoc, build_scale_corpus, scale_queries
from repro.exceptions import SearchError
from repro.search.analysis import STANDARD_ANALYZER_CONFIG, create_analyzer
from repro.search.engine import SearchEngine
from repro.search.inverted_index import InvertedIndex
from repro.search.segment_engine import SegmentSearchEngine
from repro.search.segments import (
    Segment,
    SegmentFormatError,
    merge_segments,
    write_segment,
)

FIELD_ANALYZERS = {
    "body": STANDARD_ANALYZER_CONFIG,
    "title": STANDARD_ANALYZER_CONFIG,
}


WHITESPACE_CONFIG = {
    "tokenizer": {"type": "whitespace"},
    "filter": ["lowercase"],
    "char_filter": [],
}


def _index_of(texts: dict[int, str]) -> InvertedIndex:
    analyzer = create_analyzer(WHITESPACE_CONFIG)
    index = InvertedIndex()
    for doc_ord, text in texts.items():
        index.add_document(doc_ord, analyzer.analyze(text))
    return index


def _write(path, texts: dict[int, str]) -> None:
    docs = [
        (doc_ord, f"doc-{doc_ord}", {"body": text})
        for doc_ord, text in sorted(texts.items())
    ]
    write_segment(path, docs, {"body": _index_of(texts)})


# -- binary format -----------------------------------------------------------


class TestSegmentFormat:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "a.seg")
        _write(path, {3: "fever cough fever", 7: "cough", 10: "renal"})
        seg = Segment.open(path)
        try:
            assert list(seg.ords) == [3, 7, 10]
            assert seg.doc_ids == ["doc-3", "doc-7", "doc-10"]
            assert seg.base_ord == 3 and seg.max_ord == 10
            assert len(seg) == 3
            reader = seg.fields["body"]
            assert reader.terms == ["cough", "fever", "renal"]
            rows, tfs, first = reader.postings_arrays("fever")
            assert list(rows) == [0] and list(tfs) == [2]
            assert list(reader.posting_positions(first)) == [0, 2]
            rows, tfs, _ = reader.postings_arrays("cough")
            assert list(rows) == [0, 1] and list(tfs) == [1, 1]
            assert reader.postings_arrays("absent") is None
            assert seg.stored(2) == {"body": "renal"}
            assert seg.row_of(7) == 1
            assert seg.row_of(8) == -1
            seg.verify()
        finally:
            seg.close()

    def test_field_stats_and_lengths(self, tmp_path):
        path = str(tmp_path / "a.seg")
        _write(path, {0: "a b c", 1: "d"})
        seg = Segment.open(path)
        try:
            reader = seg.fields["body"]
            assert reader.n_documents == 2
            assert reader.total_length == 4
            assert list(reader.doc_lens) == [3, 1]
            assert list(reader.has_field) == [1, 1]
        finally:
            seg.close()

    def test_empty_docs_rejected(self, tmp_path):
        with pytest.raises(SegmentFormatError):
            write_segment(str(tmp_path / "x.seg"), [], {})

    def test_unsorted_docs_rejected(self, tmp_path):
        docs = [(5, "a", {}), (2, "b", {})]
        with pytest.raises(SegmentFormatError):
            write_segment(str(tmp_path / "x.seg"), docs, {})

    def test_corruption_detected(self, tmp_path):
        path = str(tmp_path / "a.seg")
        _write(path, {0: "fever cough", 1: "renal failure"})
        data = bytearray(open(path, "rb").read())
        data[-3] ^= 0xFF  # flip a byte inside the last section
        with open(path, "wb") as handle:
            handle.write(data)
        with pytest.raises(SegmentFormatError):
            seg = Segment.open(path)
            try:
                seg.verify()
            finally:
                seg.close()

    def test_truncated_header_detected(self, tmp_path):
        path = str(tmp_path / "a.seg")
        with open(path, "wb") as handle:
            handle.write(b"BOGUS")
        with pytest.raises(SegmentFormatError):
            Segment.open(path)

    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        path = str(tmp_path / "a.seg")
        _write(path, {0: "fever"})
        assert not os.path.exists(path + ".tmp")


class TestMerge:
    def test_merge_preserves_ords_and_drops_deleted(self, tmp_path):
        a = str(tmp_path / "a.seg")
        b = str(tmp_path / "b.seg")
        out = str(tmp_path / "m.seg")
        _write(a, {0: "fever renal", 1: "cough"})
        _write(b, {5: "fever"})
        seg_a, seg_b = Segment.open(a), Segment.open(b)
        deleted = np.zeros(2, dtype=bool)
        deleted[0] = True  # drop ord 0, the only "renal" doc
        try:
            kept = merge_segments(out, [(seg_a, deleted), (seg_b, None)])
        finally:
            seg_a.close()
            seg_b.close()
        assert kept == 2
        merged = Segment.open(out)
        try:
            assert list(merged.ords) == [1, 5]
            reader = merged.fields["body"]
            # Dead terms drop out of the dictionary like a cold rebuild.
            assert reader.terms == ["cough", "fever"]
            rows, _, _ = reader.postings_arrays("fever")
            assert list(rows) == [1]
            merged.verify()
        finally:
            merged.close()

    def test_merge_all_deleted_rejected(self, tmp_path):
        a = str(tmp_path / "a.seg")
        _write(a, {0: "fever"})
        seg = Segment.open(a)
        try:
            with pytest.raises(SegmentFormatError):
                merge_segments(
                    str(tmp_path / "m.seg"),
                    [(seg, np.ones(1, dtype=bool))],
                )
        finally:
            seg.close()


# -- segment-backed engine ---------------------------------------------------


def _seg_engine(tmp_path, **kwargs):
    kwargs.setdefault("flush_threshold", 3)
    kwargs.setdefault("merge_factor", 4)
    return SegmentSearchEngine(
        FIELD_ANALYZERS, segment_dir=str(tmp_path / "segs"), **kwargs
    )


DOCS = {
    "d0": {"body": "acute renal failure", "title": "renal case"},
    "d1": {"body": "fever and cough", "title": "fever"},
    "d2": {"body": "renal fever", "title": "mixed"},
    "d3": {"body": "chest pain dyspnea", "title": "cardiac"},
    "d4": {"body": "cough cough cough", "title": "resp"},
}

QUERIES = [
    {"match": {"body": "renal fever"}},
    {"match_phrase": {"body": "renal failure"}},
    {"term": {"title": "fever"}},
    {"multi_match": {"query": "renal cough", "fields": ["body^2", "title"]}},
    {"match_all": {}},
    {
        "bool": {
            "must": [{"match": {"body": "cough"}}],
            "must_not": [{"term": {"body": "fever"}}],
        }
    },
]


def _hits(engine, query):
    return [
        (hit.doc_id, hit.score, hit.source)
        for hit in engine.search(query, size=10)
    ]


class TestSegmentSearchEngine:
    def test_bit_identical_across_flush_and_merge(self, tmp_path):
        engine = _seg_engine(tmp_path, flush_threshold=2, merge_factor=2)
        reference = SearchEngine(FIELD_ANALYZERS)
        try:
            for doc_id, fields in DOCS.items():
                engine.index(doc_id, fields)
                reference.index(doc_id, fields)
            engine.flush()
            engine.merge()
            assert engine.delete("d3") and reference.delete("d3")
            for query in QUERIES:
                assert _hits(engine, query) == _hits(reference, query)
        finally:
            engine.close()

    def test_auto_flush_at_threshold(self, tmp_path):
        engine = _seg_engine(tmp_path, flush_threshold=2)
        try:
            engine.index("d0", DOCS["d0"])
            assert engine.n_segments == 0
            engine.index("d1", DOCS["d1"])
            assert engine.n_segments == 1  # buffer sealed automatically
            assert engine.n_documents == 2
        finally:
            engine.close()

    def test_merge_compacts_segments(self, tmp_path):
        engine = _seg_engine(tmp_path, flush_threshold=1, merge_factor=100)
        try:
            for doc_id, fields in DOCS.items():
                engine.index(doc_id, fields)
            assert engine.n_segments == len(DOCS)
            engine.merge()
            assert engine.n_segments == 1
            assert engine.n_documents == len(DOCS)
        finally:
            engine.close()

    def test_sealed_delete_uses_bitmap_and_survives_reopen(self, tmp_path):
        engine = _seg_engine(tmp_path, flush_threshold=1)
        try:
            engine.index("d0", DOCS["d0"])
            engine.index("d1", DOCS["d1"])
            generation = engine.generation
            assert engine.delete("d0")
            assert engine.generation > generation
            assert not engine.delete("d0")
            assert engine.n_documents == 1
        finally:
            engine.close()
        reopened = _seg_engine(tmp_path, flush_threshold=1)
        try:
            assert reopened.n_documents == 1
            assert [h[0] for h in _hits(reopened, {"match_all": {}})] == [
                "d1"
            ]
        finally:
            reopened.close()

    def test_reopen_restores_ordinal_clock(self, tmp_path):
        engine = _seg_engine(tmp_path, flush_threshold=1)
        try:
            engine.index("d0", DOCS["d0"])
            engine.index("d1", DOCS["d1"])
            clock = engine._next_ordinal
        finally:
            engine.close()
        reopened = _seg_engine(tmp_path, flush_threshold=1)
        try:
            assert reopened._next_ordinal == clock
            reopened.index("d9", {"body": "fresh", "title": ""})
            assert reopened.n_documents == 3
        finally:
            reopened.close()

    def test_flush_empty_buffer_noop(self, tmp_path):
        engine = _seg_engine(tmp_path)
        try:
            assert engine.flush() is None
            assert engine.n_segments == 0
        finally:
            engine.close()

    def test_highlight_reads_sealed_source(self, tmp_path):
        engine = _seg_engine(tmp_path, flush_threshold=1)
        try:
            engine.index("d1", DOCS["d1"])
            snippets = engine.highlight("d1", "body", "cough")
            assert any("<em>" in s for s in snippets)
        finally:
            engine.close()

    def test_unknown_ordinal_rejected(self, tmp_path):
        engine = _seg_engine(tmp_path)
        try:
            with pytest.raises(SearchError):
                engine._locate_state(999)
        finally:
            engine.close()

    def test_durable_snapshot_round_trip(self, tmp_path):
        engine = _seg_engine(tmp_path, flush_threshold=2)
        try:
            engine.index("d0", DOCS["d0"])
            engine.index("d1", DOCS["d1"])  # sealed by auto-flush
            engine.index("d2", DOCS["d2"])  # still buffered
            state = engine.durable_snapshot()
            restored = SegmentSearchEngine(
                FIELD_ANALYZERS,
                segment_dir=engine.segment_dir,
                flush_threshold=100,
            )
            try:
                restored.durable_restore(state)
                assert restored.n_documents == 3
                for query in QUERIES:
                    assert _hits(restored, query) == _hits(engine, query)
            finally:
                restored.close()
        finally:
            engine.close()


# -- scale corpus ------------------------------------------------------------


class TestScaleCorpus:
    def test_deterministic(self):
        a = build_scale_corpus(50, seed=3)
        b = build_scale_corpus(50, seed=3)
        assert a == b
        assert a != build_scale_corpus(50, seed=4)

    def test_shapes(self):
        docs = build_scale_corpus(10, seed=0, prefix="p")
        assert [d.doc_id for d in docs][:2] == ["p-000000", "p-000001"]
        for doc in docs:
            assert isinstance(doc, ScaleDoc)
            assert len(doc.body.split()) >= 30  # phrases add extra words
            assert doc.fields().keys() == {"title", "body"}

    def test_queries_deterministic_and_match_shaped(self):
        queries = scale_queries(5, seed=1)
        assert queries == scale_queries(5, seed=1)
        for query in queries:
            assert set(query) == {"match"}
            assert set(query["match"]) == {"body"}

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            build_scale_corpus(-1)
        with pytest.raises(ValueError):
            scale_queries(-1)
