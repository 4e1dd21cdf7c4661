"""Tests for highlighting."""

from repro.search.analysis import STANDARD_ANALYZER_CONFIG, create_analyzer
from repro.search.engine import SearchEngine
from repro.search.highlight import highlight

ANALYZER = create_analyzer(STANDARD_ANALYZER_CONFIG)
TEXT = (
    "The patient presented with fever and persistent cough. "
    "After three days the fever resolved but the cough continued "
    "for another two weeks before full recovery."
)


class TestHighlight:
    def test_terms_wrapped(self):
        snippets = highlight(ANALYZER, TEXT, "fever")
        assert snippets
        assert "<em>fever</em>" in snippets[0]

    def test_stemmed_variants_matched(self):
        snippets = highlight(ANALYZER, TEXT, "fevers")
        assert any("<em>fever</em>" in s for s in snippets)

    def test_multiple_terms(self):
        snippets = highlight(ANALYZER, TEXT, "fever cough")
        joined = " ".join(snippets)
        assert "<em>fever</em>" in joined
        assert "<em>cough</em>" in joined

    def test_no_match_no_snippets(self):
        assert highlight(ANALYZER, TEXT, "zygomatic") == []

    def test_empty_inputs(self):
        assert highlight(ANALYZER, "", "fever") == []
        assert highlight(ANALYZER, TEXT, "") == []

    def test_ellipses_on_clipped_snippets(self):
        long_text = ("filler " * 50) + "fever " + ("filler " * 50)
        snippets = highlight(ANALYZER, long_text, "fever", window=20)
        assert snippets[0].startswith("…")
        assert snippets[0].endswith("…")

    def test_max_snippets(self):
        text = ("fever " + "spacer " * 40) * 5
        snippets = highlight(ANALYZER, text, "fever", window=10, max_snippets=2)
        assert len(snippets) == 2

    def test_custom_tags(self):
        snippets = highlight(
            ANALYZER, TEXT, "fever", pre_tag="[", post_tag="]"
        )
        assert "[fever]" in snippets[0]


class TestEngineHighlight:
    def test_highlight_via_engine(self):
        engine = SearchEngine()
        engine.index("d", TEXT)
        snippets = engine.highlight("d", "persistent cough")
        assert snippets
        assert "<em>" in snippets[0]

    def test_unknown_doc_empty(self):
        engine = SearchEngine()
        assert engine.highlight("missing", "fever") == []


class TestHighlightBoundarySnapping:
    def test_window_snaps_left_to_word_start(self):
        snippets = highlight(ANALYZER, "xx abcdef fever", "fever", window=3)
        assert snippets == ["…abcdef <em>fever</em>"]

    def test_window_snaps_right_to_word_end_at_eof(self):
        snippets = highlight(ANALYZER, "fever abcdefgh", "fever", window=3)
        assert snippets == ["<em>fever</em> abcdefgh"]

    def test_match_at_offset_zero_has_no_leading_ellipsis(self):
        text = "fever then a very long tail of unrelated narrative text"
        snippets = highlight(ANALYZER, text, "fever", window=5)
        assert snippets[0].startswith("<em>fever</em>")
        assert not snippets[0].startswith("…")

    def test_match_at_eof_has_no_trailing_ellipsis(self):
        text = "a very long prefix of unrelated narrative then fever"
        snippets = highlight(ANALYZER, text, "fever", window=5)
        assert snippets[0].endswith("<em>fever</em>")

    def test_whole_text_window_has_no_ellipses(self):
        snippets = highlight(ANALYZER, "mild fever today", "fever", window=60)
        assert snippets == ["mild <em>fever</em> today"]
