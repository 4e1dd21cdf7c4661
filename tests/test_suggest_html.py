"""Tests for query suggestion and the HTML report view."""

from xml.etree import ElementTree

import pytest

from repro.ontology.concepts import build_default_ontology
from repro.search.suggest import QuerySuggester
from repro.viz.report_html import render_report_html


class TestQuerySuggester:
    def _suggester(self):
        suggester = QuerySuggester()
        suggester.add_term("chest pain", weight=5)
        suggester.add_term("chest tightness", weight=2)
        suggester.add_term("cough", weight=3)
        suggester.add_term("amiodarone", weight=1)
        return suggester

    def test_prefix_completion(self):
        hits = self._suggester().suggest("ches")
        assert [h.text for h in hits] == ["chest pain", "chest tightness"]

    def test_weight_ordering(self):
        hits = self._suggester().suggest("c")
        assert hits[0].text == "chest pain"

    def test_word_internal_prefix(self):
        hits = self._suggester().suggest("pain")
        assert [h.text for h in hits] == ["chest pain"]

    def test_limit(self):
        assert len(self._suggester().suggest("c", limit=1)) == 1

    def test_empty_prefix(self):
        assert self._suggester().suggest("") == []

    def test_case_insensitive(self):
        assert self._suggester().suggest("CHEST")

    def test_reinforcement_accumulates(self):
        suggester = QuerySuggester()
        suggester.add_term("fever", weight=1)
        suggester.add_term("Fever", weight=2)
        assert suggester.suggest("fev")[0].weight == 3
        assert len(suggester) == 1

    def test_ontology_source(self):
        suggester = QuerySuggester()
        suggester.add_from_ontology(build_default_ontology())
        hits = suggester.suggest("dysp")
        assert any(h.text == "dyspnea" for h in hits)
        assert all(h.source == "ontology" for h in hits)

    def test_graph_source(self, cvd_reports):
        from repro.ir.indexer import CreateIrIndexer

        indexer = CreateIrIndexer()
        report = cvd_reports[0]
        indexer.index_annotation_document(
            report.report_id, report.annotations
        )
        suggester = QuerySuggester()
        assert suggester.add_from_graph(indexer.graph) > 0


class TestReportHtml:
    def test_valid_xhtml(self, one_report):
        html = render_report_html(
            one_report.annotations, title=one_report.title
        )
        body = html.split("?>", 1)[1]
        root = ElementTree.fromstring(body)
        assert root.tag.endswith("html")

    def test_entities_marked(self, one_report):
        html = render_report_html(one_report.annotations)
        assert html.count("<mark") == len(
            one_report.annotations.textbounds
        )
        first = one_report.annotations.spans_sorted()[0]
        assert first.text in html

    def test_metadata_rendered(self, one_report):
        html = render_report_html(
            one_report.annotations,
            title=one_report.title,
            metadata={"authors": one_report.authors},
        )
        assert one_report.authors[0] in html

    def test_relations_table(self, one_report):
        html = render_report_html(one_report.annotations)
        assert "<table>" in html
        assert html.count("<tr>") >= len(one_report.annotations.relations)

    def test_negated_mention_styled(self):
        from repro.corpus.generator import CaseReportGenerator, GeneratorConfig

        generator = CaseReportGenerator(
            seed=7, config=GeneratorConfig(negated_finding_prob=1.0)
        )
        report = generator.generate("neg")
        html = render_report_html(report.annotations)
        assert 'class="negated"' in html

    def test_escaping(self):
        from repro.annotation.model import AnnotationDocument

        doc = AnnotationDocument(doc_id="d", text="a <b> & c fever end")
        doc.add_textbound("Sign_symptom", 10, 15)
        html = render_report_html(doc, title="T<script>")
        body = html.split("?>", 1)[1]
        ElementTree.fromstring(body)  # must stay well-formed

    def test_quote_in_label_stays_parseable(self):
        # Regression: escape() does not touch '"', so a label with a
        # double quote inside the title="..." attribute used to produce
        # invalid XHTML.  Attribute values now go through quoteattr().
        from repro.annotation.model import AnnotationDocument

        doc = AnnotationDocument(
            doc_id="d", text='the "quoted" fever & <tag> end'
        )
        doc.add_textbound('Sym"pt&om<x>', 13, 18)
        html = render_report_html(doc, title='A "quoted" <title> & more')
        body = html.split("?>", 1)[1]
        root = ElementTree.fromstring(body)
        ns = "{http://www.w3.org/1999/xhtml}"
        mark = next(root.iter(f"{ns}mark"))
        assert mark.get("title") == 'Sym"pt&om<x>'

    def test_no_empty_class_attribute(self, one_report):
        html = render_report_html(one_report.annotations)
        assert 'class=""' not in html

    def test_anchor_ids(self):
        from repro.annotation.model import AnnotationDocument
        from repro.viz.report_html import marked_narrative

        doc = AnnotationDocument(doc_id="d", text="fever then chills")
        doc.add_textbound("Sign_symptom", 0, 5)
        doc.add_textbound("Sign_symptom", 11, 17)
        narrative = marked_narrative(doc, {"T2": "claim-T2"})
        fragment = ElementTree.fromstring(f"<p>{narrative}</p>")
        ids = [mark.get("id") for mark in fragment.iter("mark")]
        assert ids == [None, "claim-T2"]


class TestApiEndpoints:
    def test_html_endpoint(self, demo_system):
        pipeline, _ = demo_system
        doc_id = next(
            doc["_id"]
            for doc in pipeline.store.collection("reports").find()
            if pipeline.app.review.annotations(doc["_id"]) is not None
        )
        response = pipeline.app.handle("GET", f"/reports/{doc_id}/html")
        assert response.ok
        assert "<mark" in response.body

    def test_suggest_endpoint(self, demo_system):
        pipeline, reports = demo_system
        symptom = reports[0].annotations.spans_with_label("Sign_symptom")[0]
        prefix = symptom.text[:4]
        response = pipeline.app.handle(
            "GET", "/suggest", params={"q": prefix}
        )
        assert response.ok
        suggestions = response.body["suggestions"]
        assert suggestions
        assert any(
            s["text"].startswith(prefix.lower())
            or any(w.startswith(prefix.lower()) for w in s["text"].split())
            for s in suggestions
        )

    def test_suggest_requires_prefix(self, demo_system):
        pipeline, _ = demo_system
        assert pipeline.app.handle("GET", "/suggest").status == 400


class TestSuggesterPrefixIndexEquivalence:
    """The sorted-entry bisect index must return exactly what a linear
    scan over the vocabulary returns, for every prefix."""

    @staticmethod
    def _reference_suggest(suggester, prefix, limit=8):
        needle = prefix.strip().lower()
        if not needle:
            return []
        hits = [
            (term, weight)
            for term, weight in suggester._weights.items()
            if term.startswith(needle)
            or any(word.startswith(needle) for word in term.split())
        ]
        hits.sort(key=lambda item: (-item[1], item[0]))
        return [term for term, _ in hits[:limit]]

    def test_equivalent_on_random_vocabulary(self):
        import random

        rng = random.Random(42)
        words = [
            "fever", "fevers", "chest", "cheast", "pain", "painful",
            "amiodarone", "amio", "renal", "rena", "cough", "c",
        ]
        suggester = QuerySuggester()
        for _ in range(120):
            term = " ".join(
                rng.choice(words) for _ in range(rng.randint(1, 3))
            )
            suggester.add_term(term, weight=rng.randint(0, 5))
        prefixes = [w[:k] for w in words for k in range(1, len(w) + 1)]
        for prefix in prefixes:
            got = [s.text for s in suggester.suggest(prefix, limit=50)]
            want = self._reference_suggest(suggester, prefix, limit=50)
            assert got == want, f"prefix {prefix!r}"

    def test_no_false_positives_for_mid_word_infix(self):
        suggester = QuerySuggester()
        suggester.add_term("amiodarone")
        # "oda" appears inside the word but no word starts with it.
        assert suggester.suggest("oda") == []

    def test_entry_list_stays_sorted_under_interleaved_adds(self):
        suggester = QuerySuggester()
        for term in ["zzz", "aaa", "mmm case", "bbb", "aaa zzz"]:
            suggester.add_term(term)
        assert suggester._entries == sorted(suggester._entries)
        assert [s.text for s in suggester.suggest("zz")] == [
            "aaa zzz", "zzz",
        ]
