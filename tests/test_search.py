"""Tests for the full-text search substrate (ElasticSearch analog + Solr)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import AnalyzerError
from repro.search import analysis
from repro.search.analysis import (
    AnalyzedToken,
    Analyzer,
    CREATE_IR_ANALYZER_CONFIG,
    NGramTokenizer,
    STANDARD_ANALYZER_CONFIG,
    StandardTokenizer,
    KeywordTokenizer,
    WhitespaceTokenizer,
    asciifolding_filter,
    create_analyzer,
    html_strip,
    lowercase_filter,
    stop_filter,
    stemmer_filter,
    unique_filter,
)
from repro.search.bm25 import BM25Scorer
from repro.search.engine import SearchEngine
from repro.search.inverted_index import InvertedIndex
from repro.search.solr import SolrBaseline
from repro.testing.oracles import bm25_scores_scalar


class TestTokenizers:
    def test_standard_drops_punctuation(self):
        terms = [t.term for t in StandardTokenizer().tokenize("fever, cough!")]
        assert terms == ["fever", "cough"]

    def test_whitespace(self):
        terms = [t.term for t in WhitespaceTokenizer().tokenize("a  b\nc")]
        assert terms == ["a", "b", "c"]

    def test_keyword_single_token(self):
        tokens = KeywordTokenizer().tokenize("atrial fibrillation")
        assert len(tokens) == 1
        assert tokens[0].term == "atrial fibrillation"

    def test_keyword_empty(self):
        assert KeywordTokenizer().tokenize("") == []

    def test_ngram_paper_config(self):
        tokens = NGramTokenizer(3, 25).tokenize("amiodarone")
        terms = {t.term for t in tokens}
        assert "ami" in terms
        assert "amiodarone" in terms
        assert all(3 <= len(t) <= 25 for t in terms)

    def test_ngram_splits_on_nonalnum(self):
        terms = {t.term for t in NGramTokenizer(3, 25).tokenize("atrial-fib")}
        assert "atrial" in terms
        assert not any("-" in t for t in terms)

    def test_ngram_positions_per_word(self):
        tokens = NGramTokenizer(3, 25).tokenize("abc def")
        positions = {t.term: t.position for t in tokens}
        assert positions["abc"] == 0
        assert positions["def"] == 1

    def test_ngram_short_word_kept(self):
        terms = [t.term for t in NGramTokenizer(3, 25).tokenize("BP")]
        assert terms == ["BP"]

    def test_ngram_bad_bounds(self):
        with pytest.raises(AnalyzerError):
            NGramTokenizer(5, 3)


class TestTokenFilters:
    def _tokens(self, text):
        return StandardTokenizer().tokenize(text)

    def test_lowercase(self):
        out = lowercase_filter(self._tokens("FEVER Cough"))
        assert [t.term for t in out] == ["fever", "cough"]

    def test_asciifolding(self):
        out = asciifolding_filter(self._tokens("café naïve"))
        assert [t.term for t in out] == ["cafe", "naive"]

    def test_stop(self):
        out = stop_filter(lowercase_filter(self._tokens("the fever and cough")))
        assert [t.term for t in out] == ["fever", "cough"]

    def test_stemmer(self):
        out = stemmer_filter(lowercase_filter(self._tokens("palpitations")))
        assert out[0].term == stemmer_filter(
            lowercase_filter(self._tokens("palpitation"))
        )[0].term

    def test_unique(self):
        tokens = self._tokens("abc")
        out = unique_filter(tokens + tokens)
        assert len(out) == 1

    def test_html_strip(self):
        assert html_strip("<b>fever</b>").strip() == "fever"


class TestAnalyzerFactory:
    def test_paper_config_builds(self):
        analyzer = create_analyzer(CREATE_IR_ANALYZER_CONFIG)
        terms = analyzer.terms("Amiodarone")
        assert "amiodaron" in terms or "amiodarone" in terms

    def test_standard_config(self):
        analyzer = create_analyzer(STANDARD_ANALYZER_CONFIG)
        assert analyzer.terms("The Fevers") == [stemmer_filter(
            lowercase_filter(StandardTokenizer().tokenize("Fevers"))
        )[0].term]

    def test_unknown_tokenizer(self):
        with pytest.raises(AnalyzerError):
            create_analyzer({"tokenizer": {"type": "magic"}})

    def test_unknown_filter(self):
        with pytest.raises(AnalyzerError):
            create_analyzer({"filter": ["nope"]})

    def test_string_tokenizer_shorthand(self):
        analyzer = create_analyzer({"tokenizer": "whitespace"})
        assert analyzer.terms("a b") == ["a", "b"]


def plain_chain(analyzer, text):
    """The chain as its definition reads: the whole text through the
    tokenizer, then every filter over the whole token list."""
    for char_filter in analyzer.char_filters:
        text = char_filter(text)
    tokens = analyzer.tokenizer.tokenize(text)
    for token_filter in analyzer.token_filters:
        tokens = token_filter(tokens)
    return tokens


EDGE_TEXTS = [
    "",
    "   \n\t ",
    "Sjögren's syndrome in a naïve café patient; SJÖGREN again",
    "BP of a pt on IV tx: 5 mg q8h",
    "pseudopseudohypoparathyroidism and "
    "pneumonoultramicroscopicsilicovolcanoconiosis were excluded",
    "being shaken, both hands were cold",  # "be" / "and" appear by stemming
    "x_y under_score 3.5 mg/dL beta-blocker 1,200 50mg",
]


class TestAnalyzerWordMemo:
    @pytest.fixture(scope="class")
    def texts(self, small_corpus):
        rng = random.Random(1307)
        texts = list(EDGE_TEXTS)
        for report in rng.sample(small_corpus, 12):
            texts.append(report.text)
            words = report.text.split()
            rng.shuffle(words)
            texts.append(" ".join(words[:60]))
        return texts

    @pytest.mark.parametrize(
        "config", [CREATE_IR_ANALYZER_CONFIG, STANDARD_ANALYZER_CONFIG]
    )
    def test_equals_plain_chain_token_for_token(self, config, texts):
        analyzer = create_analyzer(config)
        assert analyzer._memo is not None
        for text in texts + texts:  # second pass is served from the memo
            assert analyzer.analyze(text) == plain_chain(analyzer, text)
        assert analyzer._memo

    def test_edge_cases_are_exercised(self):
        # "being" stems to the stopword "be": kept where ``stop`` runs
        # before the stemmer, dropped where it runs after.
        standard = create_analyzer(STANDARD_ANALYZER_CONFIG)
        assert standard.terms("being shaken") == ["be", "shaken"]
        ngram = create_analyzer(CREATE_IR_ANALYZER_CONFIG)
        assert "be" not in ngram.terms("being")
        assert "and" not in ngram.terms("hands")  # gram "ands" -> "and"
        assert "bp" in ngram.terms("BP of a pt")
        long_word = "pseudopseudohypoparathyroidism"
        widths = {t.end - t.start for t in ngram.analyze(long_word)}
        assert max(widths) == 25 and len(long_word) > 25

    def test_unique_and_foreign_filters_keep_the_list_pipeline(self, texts):
        def reverse_filter(tokens):
            return tokens[::-1]

        with_unique = create_analyzer(
            {
                "tokenizer": {"type": "ngram", "min_gram": 2, "max_gram": 3},
                "filter": ["lowercase", "unique"],
            }
        )
        foreign = Analyzer(StandardTokenizer(), [reverse_filter])
        keyword = create_analyzer(
            {"tokenizer": "keyword", "filter": ["lowercase"]}
        )
        for analyzer in (with_unique, foreign, keyword):
            assert analyzer._memo is None
            for text in texts:
                assert analyzer.analyze(text) == plain_chain(analyzer, text)
        # "banana": the second "an" / "na" / "ana" at position 0 is dropped.
        assert with_unique.terms("Banana") == [
            "ba", "ban", "an", "ana", "na", "nan",
        ]

    def test_memo_never_exceeds_its_bound(self, monkeypatch, texts):
        monkeypatch.setattr(analysis, "_MEMO_MAX_COST", 400)
        analyzer = create_analyzer(CREATE_IR_ANALYZER_CONFIG)
        refills = 0
        seen_cost = 0
        for text in texts:
            for word in text.split():
                assert analyzer.analyze(word) == plain_chain(analyzer, word)
                cost = sum(
                    len(key) + len(entry)
                    for key, entry in analyzer._memo.items()
                )
                assert cost == analyzer._memo_cost <= 400
                refills += cost < seen_cost
                seen_cost = cost
        assert refills > 1
        # One word dearer than the whole bound is analyzed, never kept.
        assert "pneumonoultramicroscopicsilicovolcanoconiosis" not in (
            analyzer._memo
        )


class TestInvertedIndex:
    def _index(self):
        index = InvertedIndex()
        analyzer = create_analyzer({"tokenizer": {"type": "standard"}, "filter": ["lowercase"]})
        index.add_document(0, analyzer.analyze("fever and cough"))
        index.add_document(1, analyzer.analyze("fever only here today"))
        return index

    def test_document_frequency(self):
        index = self._index()
        assert index.document_frequency("fever") == 2
        assert index.document_frequency("cough") == 1
        assert index.document_frequency("absent") == 0

    def test_lengths(self):
        index = self._index()
        assert index.doc_length(0) == 3
        assert index.average_length == pytest.approx(3.5)

    def test_remove_document(self):
        index = self._index()
        index.remove_document(0)
        assert index.document_frequency("cough") == 0
        assert index.n_documents == 1

    def test_readd_replaces(self):
        index = self._index()
        analyzer = create_analyzer({"tokenizer": {"type": "standard"}})
        index.add_document(0, analyzer.analyze("entirely new words"))
        assert index.document_frequency("fever") == 1

    def test_vocabulary(self):
        index = self._index()
        assert "fever" in index.terms()


class TestBM25:
    def test_idf_decreases_with_df(self):
        index = InvertedIndex()
        analyzer = create_analyzer({"tokenizer": {"type": "standard"}, "filter": ["lowercase"]})
        index.add_document(0, analyzer.analyze("common rare"))
        index.add_document(1, analyzer.analyze("common"))
        scorer = BM25Scorer(index)
        assert scorer.idf("rare") > scorer.idf("common")

    def test_scores_rank_relevant_higher(self):
        index = InvertedIndex()
        analyzer = create_analyzer({"tokenizer": {"type": "standard"}, "filter": ["lowercase"]})
        index.add_document(0, analyzer.analyze("fever fever fever"))
        index.add_document(1, analyzer.analyze("fever cough dyspnea"))
        ordinals, scores = BM25Scorer(index).score_terms(["fever"])
        assert ordinals.tolist() == [0, 1]
        assert scores[0] > scores[1]


VOCABULARY = ["fever", "cough", "renal", "mass", "ulcer", "pain"]

# One op on an InvertedIndex: ("add", ordinal, terms) or
# ("remove", ordinal, ...).  Ordinals are drawn from a small pool, so
# streams re-add a removed lower ordinal after higher ones (the
# bisect-insert path) and re-add a live one (replace in place).
INDEX_OPS = st.lists(
    st.tuples(
        st.sampled_from(["add", "add", "remove"]),
        st.integers(0, 7),
        st.lists(st.sampled_from(VOCABULARY), max_size=30),
    ),
    max_size=40,
)


class TestVectorisedBM25:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        INDEX_OPS,
        st.lists(st.sampled_from(VOCABULARY + ["absent"]), max_size=10),
    )
    def test_scores_equal_the_scalar_loop_float_for_float(
        self, ops, query
    ):
        index = InvertedIndex()
        for op, ordinal, terms in ops:
            if op == "add":
                index.add_document(
                    ordinal,
                    [
                        AnalyzedToken(term, i, i, i + 1)
                        for i, term in enumerate(terms)
                    ],
                )
            else:
                index.remove_document(ordinal)
        for term in index.terms():
            ordinals = [doc_ord for doc_ord, _tf in index.postings(term)]
            assert ordinals and all(
                a < b for a, b in zip(ordinals, ordinals[1:])
            ), (term, ordinals)
        ordinals, scores = BM25Scorer(index).score_terms(query)
        expected = bm25_scores_scalar(index, query)
        assert ordinals.tolist() == sorted(expected)
        # ``==`` on every float: not approx.
        assert scores.tolist() == [expected[o] for o in sorted(expected)]


class TestSearchEngine:
    def _engine(self):
        engine = SearchEngine()
        engine.index("d1", "The patient presented with fever and persistent cough")
        engine.index("d2", "Atrial fibrillation treated with amiodarone")
        engine.index("d3", "Ischemic stroke with slurred speech")
        return engine

    def test_match(self):
        hits = self._engine().search("fever cough")
        assert hits[0].doc_id == "d1"

    def test_ngram_partial_match(self):
        hits = self._engine().search("amiodaron")
        assert hits[0].doc_id == "d2"

    def test_typo_tolerance_via_ngrams(self):
        hits = self._engine().search("fibrilation")  # missing 'l'
        assert hits and hits[0].doc_id == "d2"

    def test_accented_body_words_fold_like_the_title(self):
        """The n-gram tokenizer used to split on ``[A-Za-z0-9]+``:
        "Sjögren" indexed as ``sj`` + grams of ``gren`` and the body
        analyzer's asciifolding never saw an accent."""
        engine = self._engine()
        engine.index("d4", "Primary Sjögren syndrome with dry eyes")
        assert "sjogren" in create_analyzer(CREATE_IR_ANALYZER_CONFIG).terms(
            "Sjögren"
        )
        folded, accented = engine.search("sjogren"), engine.search("Sjögren")
        assert folded[0].doc_id == accented[0].doc_id == "d4"
        assert folded[0].score == accented[0].score
        # Offsets still address the stored text, not the folded terms.
        assert engine.highlight("d4", "sjogren") == [
            "Primary <em>Sjögren</em> syndrome with dry eyes"
        ]

    def test_delete(self):
        engine = self._engine()
        assert engine.delete("d1")
        assert not engine.delete("d1")
        assert engine.search("fever") == [] or all(
            h.doc_id != "d1" for h in engine.search("fever")
        )

    def test_reindex_replaces(self):
        engine = self._engine()
        engine.index("d1", "entirely different content")
        assert all(h.doc_id != "d1" for h in engine.search("fever cough"))

    def test_size_limits_results(self):
        engine = self._engine()
        assert len(engine.search("with fever stroke amiodarone")) == 3
        assert len(engine.search("with fever stroke amiodarone", size=2)) == 2

    def test_empty_query_no_results(self):
        assert self._engine().search("") == []

    def test_size_zero_returns_nothing(self):
        assert self._engine().search("with fever stroke", size=0) == []

    def test_ties_at_the_cut_break_by_str_doc_id(self):
        engine = SearchEngine()
        for doc_id in ("d3", "d10", "d2"):
            engine.index(doc_id, "fever and cough")
        hits = engine.search("fever", size=2)
        assert [h.doc_id for h in hits] == ["d10", "d2"]
        assert hits[0].score == hits[1].score

    def test_size_beyond_touched_returns_every_touched_document(self):
        engine = self._engine()
        touched = engine.search("with fever stroke amiodarone", size=3)
        assert engine.search("with fever stroke amiodarone", size=50) == (
            touched
        )
        assert {h.doc_id for h in touched} == {"d1", "d2", "d3"}

    def test_deterministic_tie_order(self):
        engine = SearchEngine(STANDARD_ANALYZER_CONFIG)
        engine.index("b", "same text")
        engine.index("a", "same text")
        hits = engine.search("same text")
        assert [h.doc_id for h in hits] == ["a", "b"]


class TestSolrBaseline:
    def _solr(self):
        solr = SolrBaseline()
        solr.index("d1", "fever and cough in a young patient")
        solr.index("d2", "atrial fibrillation and amiodarone")
        solr.index("d3", "fever fever fever everywhere")
        return solr

    def test_keyword_match(self):
        hits = self._solr().search("amiodarone")
        assert hits[0].doc_id == "d2"

    def test_no_partial_match(self):
        # Unlike the n-gram engine, Solr-style keyword match misses
        # truncated terms (beyond what stemming conflates).
        assert self._solr().search("amiodar") == []

    def test_cosine_normalization_prefers_focused_doc(self):
        hits = self._solr().search("fever")
        assert hits[0].doc_id == "d3"

    def test_delete(self):
        solr = self._solr()
        assert solr.delete("d3")
        assert all(h.doc_id != "d3" for h in solr.search("fever"))

    def test_reindex(self):
        solr = self._solr()
        solr.index("d1", "new content entirely")
        assert all(h.doc_id != "d1" for h in solr.search("fever"))
        assert solr.n_documents == 3

    def test_empty_query(self):
        assert self._solr().search("") == []

    @given(st.text(max_size=60))
    def test_search_never_crashes(self, query):
        self._solr().search(query)
