"""Tests for assertion/negation detection and its retrieval effect."""

import pytest

from repro.corpus.generator import CaseReportGenerator, GeneratorConfig
from repro.ir.indexer import CreateIrIndexer
from repro.ir.query_parser import ParsedQuery, QueryConceptMention
from repro.ir.searcher import CreateIrSearcher
from repro.ner.negation import NegationDetector


@pytest.fixture(scope="module")
def detector():
    return NegationDetector()


def span_of(text, phrase):
    start = text.index(phrase)
    return (start, start + len(phrase))


class TestNegationDetector:
    def test_denied_forward_scope(self, detector):
        text = "The patient denied chest pain on admission."
        assert detector.is_negated(text, *span_of(text, "chest pain"))

    def test_no_forward_scope(self, detector):
        text = "There was no fever during the stay."
        assert detector.is_negated(text, *span_of(text, "fever"))

    def test_negative_for(self, detector):
        text = "Blood cultures were negative for bacterial growth."
        assert detector.is_negated(text, *span_of(text, "bacterial growth"))

    def test_unnegated_mention(self, detector):
        text = "The patient reported severe chest pain."
        assert not detector.is_negated(text, *span_of(text, "chest pain"))

    def test_scope_does_not_cross_sentence(self, detector):
        text = "He denied dyspnea. Fever was documented overnight."
        assert detector.is_negated(text, *span_of(text, "dyspnea"))
        assert not detector.is_negated(text, *span_of(text, "Fever"))

    def test_scope_breaker_but(self, detector):
        text = "She denied cough but reported fever this week."
        assert detector.is_negated(text, *span_of(text, "cough"))
        assert not detector.is_negated(text, *span_of(text, "fever"))

    def test_backward_trigger(self, detector):
        text = "Pulmonary embolism was ruled out by CT angiography."
        assert detector.is_negated(text, *span_of(text, "Pulmonary embolism"))

    def test_scope_window_bounded(self, detector):
        text = (
            "No acute distress was noted at any point whatsoever and the "
            "syncope continued."
        )
        assert not detector.is_negated(text, *span_of(text, "syncope"))

    def test_detect_returns_triggers(self, detector):
        scopes = detector.detect("The patient denied chest pain.")
        assert any(scope.trigger == "denied" for scope in scopes)

    def test_empty_text(self, detector):
        assert detector.detect("") == []


class TestNegationInPipeline:
    @pytest.fixture(scope="class")
    def negated_corpus(self):
        config = GeneratorConfig(negated_finding_prob=1.0)
        generator = CaseReportGenerator(seed=31, config=config)
        return [generator.generate(f"neg-{i}") for i in range(10)]

    def test_generator_marks_negated(self, negated_corpus):
        for report in negated_corpus:
            assert any(
                attribute.label == "Negated"
                for attribute in report.annotations.attributes.values()
            )

    def test_negated_nodes_flagged_in_graph(self, negated_corpus):
        indexer = CreateIrIndexer()
        report = negated_corpus[0]
        indexer.index_annotation_document(
            report.report_id, report.annotations
        )
        flagged = [
            node
            for node in indexer.graph.find_nodes(doc_id=report.report_id)
            if node.get("negated")
        ]
        assert flagged

    def test_graph_search_skips_negated_mentions(self, negated_corpus):
        indexer = CreateIrIndexer()
        for report in negated_corpus:
            indexer.index_annotation_document(
                report.report_id, report.annotations
            )
        searcher = CreateIrSearcher(indexer, parser=None)
        # Pick a denied surface that appears ONLY negated in its report.
        report = negated_corpus[0]
        negated_ids = {
            attribute.target
            for attribute in report.annotations.attributes.values()
            if attribute.label == "Negated"
        }
        denied_tb = report.annotations.textbounds[next(iter(negated_ids))]
        positive_ids = {
            tb.ann_id
            for tb in report.annotations.textbounds.values()
            if tb.text == denied_tb.text and tb.ann_id not in negated_ids
        }
        if positive_ids:
            pytest.skip("surface also appears positively in this report")
        parsed = ParsedQuery(
            text=denied_tb.text,
            concepts=[
                QueryConceptMention(denied_tb.text, denied_tb.label, 0, 0)
            ],
        )
        details = searcher.graph_search(parsed)
        assert all(d.doc_id != report.report_id for d in details)

    def test_extractor_excludes_negated_from_timeline(self, demo_system):
        pipeline, _ = demo_system
        text = (
            "The patient is a 60-year-old man. He presented to the "
            "hospital with severe chest pain. He denied fever. "
            "Electrocardiogram on admission revealed ST-segment elevation. "
            "The patient was discharged home."
        )
        extracted = pipeline.extractor.extract("neg-check", text)
        negated = [
            extracted.textbounds[attribute.target].text
            for attribute in extracted.attributes.values()
            if attribute.label == "Negated"
        ]
        if not negated:
            pytest.skip("tagger did not produce a span inside the scope")
        # No temporal relation touches a negated span.
        negated_ids = {
            attribute.target
            for attribute in extracted.attributes.values()
            if attribute.label == "Negated"
        }
        for rel in extracted.relations.values():
            assert rel.source not in negated_ids
            assert rel.target not in negated_ids
