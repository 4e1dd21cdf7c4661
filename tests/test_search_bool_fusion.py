"""Regression tests: fusion dedup, fast deletion."""

from repro.ir.ranking import fuse_results
from repro.search.analysis import create_analyzer, STANDARD_ANALYZER_CONFIG
from repro.search.engine import SearchEngine
from repro.search.inverted_index import InvertedIndex


def _engine():
    engine = SearchEngine(STANDARD_ANALYZER_CONFIG)
    engine.index("d1", "fever and cough in the clinic")
    engine.index("d2", "fever without cough")
    engine.index("d3", "headache only")
    return engine


class TestFuseResults:
    def test_graph_block_precedes_keyword_block(self):
        fused = fuse_results(
            [("g1", 0.2)], [("k1", 99.0), ("g1", 50.0)], size=10
        )
        assert fused == [("g1", 0.2, "graph"), ("k1", 99.0, "keyword")]

    def test_dedup_prefers_graph_engine(self):
        fused = fuse_results(
            [("a", 1.0), ("b", 2.0)], [("a", 9.0), ("c", 1.0)], size=10
        )
        engines = {doc: engine for doc, _, engine in fused}
        assert engines["a"] == "graph"
        assert engines["c"] == "keyword"
        assert len(fused) == 3

    def test_ordering_score_then_doc_id(self):
        fused = fuse_results(
            [("b", 1.0), ("a", 1.0), ("c", 2.0)], [], size=10
        )
        assert [doc for doc, _, _ in fused] == ["c", "a", "b"]

    def test_size_truncates_graph_block_first(self):
        fused = fuse_results(
            [("a", 3.0), ("b", 2.0), ("c", 1.0)],
            [("d", 9.0)],
            size=2,
        )
        assert [doc for doc, _, _ in fused] == ["a", "b"]

    def test_duplicate_within_keyword_block(self):
        fused = fuse_results(
            [], [("a", 2.0), ("a", 1.0), ("b", 1.5)], size=10
        )
        assert [doc for doc, _, _ in fused] == ["a", "b"]


class TestInvertedIndexDeletion:
    def _analyzed(self, text):
        return create_analyzer(STANDARD_ANALYZER_CONFIG).analyze(text)

    def test_remove_only_touches_own_terms(self):
        index = InvertedIndex()
        index.add_document(0, self._analyzed("alpha beta gamma"))
        index.add_document(1, self._analyzed("beta delta"))
        index.remove_document(0)
        assert index.n_documents == 1
        assert index.document_frequency("beta") == 1
        assert index.document_frequency("alpha") == 0
        assert index.document_frequency("delta") == 1
        assert "alpha" not in index.terms()
        assert index.doc_length(0) == 0

    def test_remove_absent_is_noop(self):
        index = InvertedIndex()
        index.add_document(0, self._analyzed("alpha"))
        index.remove_document(42)
        assert index.n_documents == 1
        assert index.document_frequency("alpha") == 1

    def test_readd_replaces_previous_content(self):
        index = InvertedIndex()
        index.add_document(0, self._analyzed("alpha beta"))
        index.add_document(0, self._analyzed("gamma"))
        assert index.document_frequency("alpha") == 0
        assert index.document_frequency("gamma") == 1
        assert index.n_documents == 1

    def test_reverse_map_cleaned_up(self):
        index = InvertedIndex()
        index.add_document(0, self._analyzed("alpha beta"))
        index.remove_document(0)
        assert index._doc_terms == {}
        assert index._postings == {}

    def test_engine_delete_then_search(self):
        engine = _engine()
        assert engine.delete("d1")
        assert not engine.delete("d1")
        hits = engine.search("fever", size=10)
        assert [h.doc_id for h in hits] == ["d2"]
        assert engine.n_documents == 2
