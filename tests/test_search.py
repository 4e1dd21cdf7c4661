"""Tests for the full-text search substrate (ElasticSearch analog + Solr)."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.exceptions import AnalyzerError, SearchError
from repro.search import analysis
from repro.search.analysis import (
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
from repro.search.engine import SearchEngine, create_ir_engine
from repro.search.inverted_index import InvertedIndex
from repro.search.solr import SolrBaseline


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

    def test_phrase_positions(self):
        index = InvertedIndex()
        analyzer = create_analyzer({"tokenizer": {"type": "standard"}, "filter": ["lowercase"]})
        index.add_document(0, analyzer.analyze("acute chest pain at rest"))
        assert index.phrase_positions(0, ["chest", "pain"]) == [1]
        assert index.phrase_positions(0, ["pain", "chest"]) == []

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
        scores = BM25Scorer(index).score_terms(["fever"])
        assert scores[0] > scores[1]


class TestSearchEngine:
    def _engine(self):
        engine = create_ir_engine()
        engine.index("d1", {"title": "Fever case", "body": "The patient presented with fever and persistent cough"})
        engine.index("d2", {"title": "Arrhythmia", "body": "Atrial fibrillation treated with amiodarone"})
        engine.index("d3", {"title": "Stroke", "body": "Ischemic stroke with slurred speech"})
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

    def test_title_field_query(self):
        hits = self._engine().search({"match": {"title": "stroke"}})
        assert hits[0].doc_id == "d3"

    def test_accented_body_words_fold_like_the_title(self):
        """The n-gram tokenizer used to split on ``[A-Za-z0-9]+``:
        "Sjögren" indexed as ``sj`` + grams of ``gren`` and the body
        analyzer's asciifolding never saw an accent."""
        engine = self._engine()
        body = "Primary Sjögren syndrome with dry eyes"
        engine.index("d4", {"title": "Sjögren", "body": body})
        assert "sjogren" in create_analyzer(CREATE_IR_ANALYZER_CONFIG).terms(
            "Sjögren"
        )
        folded, accented, title = (
            engine.search({"match": {field: text}})
            for field, text in (
                ("body", "sjogren"), ("body", "Sjögren"), ("title", "sjogren"),
            )
        )
        assert folded[0].doc_id == accented[0].doc_id == "d4"
        assert folded[0].score == accented[0].score
        assert title[0].doc_id == "d4"
        # Offsets still address the stored text, not the folded terms.
        assert engine.highlight("d4", "body", "sjogren") == [
            "Primary <em>Sjögren</em> syndrome with dry eyes"
        ]

    def test_bool_must_not(self):
        engine = self._engine()
        hits = engine.search(
            {
                "bool": {
                    "must": [{"match": {"body": "fever"}}],
                    "must_not": [{"match": {"body": "amiodarone"}}],
                }
            }
        )
        assert {h.doc_id for h in hits} == {"d1"}

    def test_bool_should_unions(self):
        hits = self._engine().search(
            {
                "bool": {
                    "should": [
                        {"match": {"body": "fever"}},
                        {"match": {"body": "stroke"}},
                    ]
                }
            }
        )
        assert {h.doc_id for h in hits} >= {"d1", "d3"}

    def test_match_all(self):
        assert len(self._engine().search({"match_all": {}})) == 3

    def test_match_phrase(self):
        engine = SearchEngine({"body": {"tokenizer": {"type": "standard"}, "filter": ["lowercase"]}})
        engine.index("a", {"body": "acute chest pain"})
        engine.index("b", {"body": "pain in the chest"})
        hits = engine.search({"match_phrase": {"body": "chest pain"}})
        assert [h.doc_id for h in hits] == ["a"]

    def test_delete(self):
        engine = self._engine()
        assert engine.delete("d1")
        assert not engine.delete("d1")
        assert engine.search("fever") == [] or all(
            h.doc_id != "d1" for h in engine.search("fever")
        )

    def test_reindex_replaces(self):
        engine = self._engine()
        engine.index("d1", {"body": "entirely different content"})
        assert all(h.doc_id != "d1" for h in engine.search("fever cough"))

    def test_size_limits_results(self):
        assert len(self._engine().search({"match_all": {}}, size=2)) == 2

    def test_malformed_query_rejected(self):
        with pytest.raises(SearchError):
            self._engine().search({"match": {"a": 1}, "term": {"b": 2}})
        with pytest.raises(SearchError):
            self._engine().search({"frobnicate": {}})

    def test_empty_query_no_results(self):
        assert self._engine().search("") == []

    def test_deterministic_tie_order(self):
        engine = SearchEngine()
        engine.index("b", {"body": "same text"})
        engine.index("a", {"body": "same text"})
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
