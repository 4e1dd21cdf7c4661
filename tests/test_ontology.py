"""Tests for the ontology substrate and concept normalization."""

import pytest

from repro.ontology.concepts import MiniOntology, build_default_ontology
from repro.ontology.normalize import ConceptNormalizer


@pytest.fixture(scope="module")
def ontology():
    return build_default_ontology()


@pytest.fixture(scope="module")
def normalizer(ontology):
    return ConceptNormalizer(ontology)


class TestMiniOntology:
    def test_lexicon_terms_registered(self, ontology):
        assert ontology.by_name("amiodarone") is not None
        assert ontology.by_name("atrial fibrillation") is not None

    def test_synonyms_share_concept(self, ontology):
        a = ontology.by_name("dyspnea")
        b = ontology.by_name("shortness of breath")
        assert a is not None and b is not None
        assert a.concept_id == b.concept_id

    def test_case_insensitive_lookup(self, ontology):
        assert ontology.by_name("Dyspnea") is not None

    def test_cui_like_ids(self, ontology):
        concept = ontology.by_name("fever")
        assert concept.concept_id.startswith("C")
        assert len(concept.concept_id) == 8

    def test_semantic_types_assigned(self, ontology):
        assert (
            ontology.by_name("warfarin").semantic_type
            == "Pharmacologic Substance"
        )

    def test_merge_on_shared_name(self):
        ontology = MiniOntology()
        first = ontology.add_concept("fever", "Sign", ("pyrexia",))
        second = ontology.add_concept("pyrexia", "Sign", ("febrile",))
        assert first.concept_id == second.concept_id
        assert "febrile" in ontology.get(first.concept_id).synonyms

    def test_unknown_name(self, ontology):
        assert ontology.by_name("florbglorb") is None

    def test_len_counts_concepts(self, ontology):
        assert len(ontology) > 100


class TestNormalizer:
    def test_exact(self, normalizer):
        result = normalizer.normalize("dyspnea")
        assert result.method == "exact"
        assert result.score == 1.0

    def test_synonym_maps_to_preferred(self, normalizer):
        result = normalizer.normalize("shortness of breath")
        assert result.preferred_name == "dyspnea"

    def test_stemmed_inflection(self, normalizer):
        result = normalizer.normalize("fevers")
        assert result is not None
        assert result.method in ("stemmed", "fuzzy")
        assert result.concept_id == normalizer.normalize("fever").concept_id

    def test_word_order_insensitive(self, normalizer):
        result = normalizer.normalize("fibrillation atrial")
        assert result is not None
        assert (
            result.concept_id
            == normalizer.normalize("atrial fibrillation").concept_id
        )

    def test_fuzzy_partial(self, normalizer):
        result = normalizer.normalize("severe atrial fibrillation")
        assert result is not None
        assert (
            result.concept_id
            == normalizer.normalize("atrial fibrillation").concept_id
        )

    def test_below_threshold_none(self, normalizer):
        assert normalizer.normalize("quantum flux capacitor") is None

    def test_empty_surface(self, normalizer):
        assert normalizer.normalize("") is None

    def test_cached_identical(self, normalizer):
        assert normalizer.normalize("fever") == normalizer.normalize("fever")


class TestOntologyInRetrieval:
    def test_nodes_stamped_with_concept_ids(self, cvd_reports):
        from repro.ir.indexer import CreateIrIndexer

        indexer = CreateIrIndexer()
        report = cvd_reports[0]
        indexer.index_annotation_document(
            report.report_id, report.annotations
        )
        stamped = [
            node
            for node in indexer.graph.find_nodes(doc_id=report.report_id)
            if node.get("conceptId")
        ]
        assert len(stamped) > len(
            list(indexer.graph.find_nodes(doc_id=report.report_id))
        ) // 2

    def test_synonym_query_retrieves_synonym_mention(self, cvd_reports):
        from repro.ir.indexer import CreateIrIndexer
        from repro.ir.query_parser import ParsedQuery, QueryConceptMention
        from repro.ir.searcher import CreateIrSearcher

        indexer = CreateIrIndexer()
        # Find a report whose gold annotations mention dyspnea.
        target = None
        for report in cvd_reports:
            if any(
                tb.text.lower() == "dyspnea"
                for tb in report.annotations.textbounds.values()
            ):
                target = report
            indexer.index_annotation_document(
                report.report_id, report.annotations
            )
        if target is None:
            pytest.skip("no dyspnea mention in fixture corpus")
        searcher = CreateIrSearcher(indexer, parser=None)
        parsed = ParsedQuery(
            text="shortness of breath",
            concepts=[
                QueryConceptMention(
                    "shortness of breath", "Sign_symptom", 0, 0
                )
            ],
        )
        details = searcher.graph_search(parsed)
        assert any(d.doc_id == target.report_id for d in details)
