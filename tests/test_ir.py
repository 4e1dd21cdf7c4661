"""Tests for CREATe-IR: ranking utilities, indexer, searcher, parser."""

import pytest

import repro.ir.searcher as searcher_module
from repro.corpus.queries import make_query_workload
from repro.graphdb.cypher import CypherEngine
from repro.graphdb.graph import PropertyGraph
from repro.ir.indexer import CreateIrIndexer
from repro.ir.query_parser import ParsedQuery, QueryConceptMention
from repro.ir.ranking import fuse_results, label_similarity, labels_match
from repro.ir.searcher import CreateIrSearcher, concept_candidates
from repro.testing.oracles import concept_candidates_scan


class TestLabelSimilarity:
    def test_identical(self):
        assert label_similarity("fever", "fever") == 1.0

    def test_morphological_variants(self):
        assert label_similarity("fevers", "fever") == 1.0  # stemming

    def test_partial_overlap(self):
        sim = label_similarity("chest pain", "acute chest pain")
        assert 0.0 < sim < 1.0

    def test_disjoint(self):
        assert label_similarity("fever", "stroke") == 0.0

    def test_empty(self):
        assert label_similarity("", "fever") == 0.0

    def test_labels_match_threshold(self):
        assert labels_match("fever", "fever")
        assert labels_match("cough", "a mild cough")
        assert not labels_match("was", "was discharged home")
        assert not labels_match("fever", "stroke")


class TestFusion:
    def test_graph_results_first(self):
        fused = fuse_results([("g1", 1.0)], [("k1", 99.0)], size=10)
        assert [item[0] for item in fused] == ["g1", "k1"]
        assert fused[0][2] == "graph"
        assert fused[1][2] == "keyword"

    def test_dedup(self):
        fused = fuse_results([("d1", 1.0)], [("d1", 5.0), ("d2", 4.0)], 10)
        assert [item[0] for item in fused] == ["d1", "d2"]

    def test_size_cap(self):
        graph = [(f"g{i}", float(10 - i)) for i in range(5)]
        assert len(fuse_results(graph, [], size=3)) == 3
        assert fuse_results(graph, [("k1", 1.0)], size=0) == []

    def test_within_block_ordering(self):
        fused = fuse_results([("a", 1.0), ("b", 2.0)], [], 10)
        assert [item[0] for item in fused] == ["b", "a"]

    def test_deterministic_ties(self):
        fused = fuse_results([("b", 1.0), ("a", 1.0)], [], 10)
        assert [item[0] for item in fused] == ["a", "b"]


def build_index(reports):
    indexer = CreateIrIndexer()
    for report in reports:
        indexer.index_annotation_document(
            report.report_id, report.annotations
        )
    return indexer


class CypherRouteGraph(PropertyGraph):
    """Reference store: every ``add_node`` from outside is rendered as
    the ``CREATE (n:Concept {...})`` statement the indexer used to issue
    and goes through the cypher engine's lexer and parser."""

    def __init__(self):
        super().__init__()
        self._cypher = CypherEngine(self)
        self._in_cypher = False

    def add_node(self, node_id, **properties):
        if self._in_cypher:
            return super().add_node(node_id, **properties)
        label = properties.pop("_label")
        rendered = []
        for key, value in properties.items():
            if value is True:
                rendered.append(f"{key}: true")
            else:
                escaped = value.replace("\\", "\\\\").replace("'", "\\'")
                rendered.append(f"{key}: '{escaped}'")
        self._in_cypher = True
        try:
            self._cypher.run(
                f"CREATE (n:{label} {{" + ", ".join(rendered) + "})"
            )
        finally:
            self._in_cypher = False
        return self.node(node_id)


class TestIndexer:
    def test_direct_nodes_equal_the_cypher_create_route(self, cvd_reports):
        graphs = []
        for graph in (PropertyGraph(), CypherRouteGraph()):
            indexer = CreateIrIndexer(graph=graph)
            for report in cvd_reports[:4]:
                indexer.index_annotation_document(
                    report.report_id, report.annotations
                )
            indexer.index_report(
                "quoted",
                "Crohn's \\ flare, no fever",
                [
                    ("T1", "Crohn's \\ flare", "Disease_disorder", "event"),
                    ("T2", "fever", "Sign_symptom", "event"),
                ],
                [("T1", "T2", "BEFORE")],
                negated_span_ids=["T2"],
            )
            graphs.append(graph)
        direct, via_cypher = graphs
        assert direct.epoch == via_cypher.epoch
        assert [
            (edge.source, edge.target, edge.label, edge.properties)
            for edge in direct.edges()
        ] == [
            (edge.source, edge.target, edge.label, edge.properties)
            for edge in via_cypher.edges()
        ]
        assert [
            (node.node_id, list(node.properties.items()))
            for node in direct.nodes()
        ] == [
            (node.node_id, list(node.properties.items()))
            for node in via_cypher.nodes()
        ]
        flagged = direct.node("quoted:T2").properties
        assert flagged["negated"] is True and flagged["_label"] == "Concept"
        assert direct.node("quoted:T1").properties["label"] == (
            "Crohn's \\ flare"
        )

    def test_nodes_per_span(self, cvd_reports):
        indexer = build_index(cvd_reports[:3])
        report = cvd_reports[0]
        record = indexer.report_stats(report.report_id)
        assert record.n_nodes == len(report.annotations.textbounds)

    def test_node_properties_match_paper_schema(self, cvd_reports):
        indexer = build_index(cvd_reports[:1])
        nodes = indexer.graph.find_nodes(doc_id=cvd_reports[0].report_id)
        for node in nodes:
            assert "label" in node.properties
            assert "entityType" in node.properties
            assert node.node_id.startswith(cvd_reports[0].report_id)

    def test_temporal_closure_adds_inferred_edges(self, cvd_reports):
        indexer = build_index(cvd_reports[:3])
        record = indexer.report_stats(cvd_reports[0].report_id)
        assert record.n_inferred_edges > 0
        inferred = [
            edge
            for edge in indexer.graph.edges()
            if edge.get("inferred")
        ]
        assert inferred

    def test_closure_ablation_off(self, cvd_reports):
        indexer = CreateIrIndexer(close_temporal=False)
        report = cvd_reports[0]
        record = indexer.index_annotation_document(
            report.report_id, report.annotations
        )
        assert record.n_inferred_edges == 0

    def test_temporal_edges_normalized_to_before_overlap(self, cvd_reports):
        indexer = build_index(cvd_reports[:3])
        labels = {edge.label for edge in indexer.graph.edges()}
        assert "AFTER" not in labels

    def test_keyword_index_populated(self, cvd_reports):
        indexer = build_index(cvd_reports[:3])
        assert indexer.engine.n_documents == 3

    def test_n_reports(self, cvd_reports):
        indexer = build_index(cvd_reports[:4])
        assert indexer.n_reports == 4


def query_for(report):
    """A gold-derived relational query matching ``report``."""
    symptoms = report.annotations.spans_with_label("Sign_symptom")
    meds = report.annotations.spans_with_label("Medication")
    assert symptoms and meds
    concepts = [
        QueryConceptMention(symptoms[0].text, "Sign_symptom", 0, 0),
        QueryConceptMention(meds[0].text, "Medication", 0, 0),
    ]
    return ParsedQuery(
        text=f"{symptoms[0].text} then {meds[0].text}",
        concepts=concepts,
        relations=[(0, 1, "BEFORE")],
    )


class TestSearcher:
    def test_graph_search_finds_source_doc(self, cvd_reports):
        indexer = build_index(cvd_reports)
        searcher = CreateIrSearcher(indexer, parser=None)
        report = cvd_reports[0]
        details = searcher.graph_search(query_for(report))
        assert any(d.doc_id == report.report_id for d in details)

    def test_relation_match_scores_higher(self, cvd_reports):
        indexer = build_index(cvd_reports)
        searcher = CreateIrSearcher(indexer, parser=None)
        report = cvd_reports[0]
        details = searcher.graph_search(query_for(report))
        source = next(d for d in details if d.doc_id == report.report_id)
        assert source.matched_relations >= 1

    def test_after_query_flipped(self, cvd_reports):
        indexer = build_index(cvd_reports)
        searcher = CreateIrSearcher(indexer, parser=None)
        report = cvd_reports[0]
        base = query_for(report)
        flipped = ParsedQuery(
            text=base.text,
            concepts=[base.concepts[1], base.concepts[0]],
            relations=[(0, 1, "AFTER")],
        )
        details = searcher.graph_search(flipped)
        assert any(d.doc_id == report.report_id for d in details)

    def test_hybrid_fusion_graph_on_top(self, cvd_reports):
        indexer = build_index(cvd_reports)
        searcher = CreateIrSearcher(indexer, parser=None)
        results = searcher.search(query_for(cvd_reports[0]), size=8)
        engines = [result.engine for result in results]
        if "graph" in engines and "keyword" in engines:
            assert engines.index("graph") < engines.index("keyword")

    def test_string_query_without_parser_uses_keyword(self, cvd_reports):
        indexer = build_index(cvd_reports)
        searcher = CreateIrSearcher(indexer, parser=None)
        results = searcher.search("fever", size=5)
        assert all(result.engine == "keyword" for result in results)

    def test_keyword_only_mode(self, cvd_reports):
        indexer = build_index(cvd_reports)
        searcher = CreateIrSearcher(indexer, parser=None)
        results = searcher.keyword_only("fever", size=5)
        assert all(result.engine == "keyword" for result in results)

    def test_empty_query(self, cvd_reports):
        indexer = build_index(cvd_reports[:2])
        searcher = CreateIrSearcher(indexer, parser=None)
        assert searcher.graph_search(ParsedQuery(text="")) == []

    def test_no_matching_concept_returns_empty_graph_results(self, cvd_reports):
        indexer = build_index(cvd_reports[:2])
        searcher = CreateIrSearcher(indexer, parser=None)
        parsed = ParsedQuery(
            text="x",
            concepts=[
                QueryConceptMention("nonexistent thing", "Sign_symptom", 0, 0)
            ],
        )
        assert searcher.graph_search(parsed) == []

    def test_concept_candidates_equal_the_scan_on_a_workload(
        self, small_corpus
    ):
        indexer = build_index(small_corpus)
        queries = make_query_workload(small_corpus, n_queries=30, seed=5)
        concepts = [
            QueryConceptMention(c.surface, c.entity_type, 0, 0)
            for query in queries
            for c in query.concepts
        ]
        assert len(concepts) > 30
        for concept in concepts:
            args = (indexer.graph, indexer.normalizer, concept)
            fast = concept_candidates(*args)
            scan = concept_candidates_scan(*args)
            assert list(fast.items()) == list(scan.items()), concept
            assert fast, concept

    def test_concept_candidates_equal_the_scan_on_edge_cases(
        self, monkeypatch
    ):
        normalizer = CreateIrIndexer().normalizer
        graph = PropertyGraph()
        rows = [
            ("d1", "fever", {}),
            ("d2", "fever", {"negated": True}),
            ("d3", "dyspnea", {}),
            ("d4", "a mild cough", {}),
            ("d5", "was discharged home", {}),
            ("d6", None, {}),
            ("d7", "Fever", {}),
            ("d8", "fever", {}),
        ]
        for doc_id, label, extra in rows:
            properties = {"entityType": "Sign_symptom", "doc_id": doc_id}
            if label is not None:
                properties["label"] = label
                normalized = normalizer.normalize(label)
                if normalized is not None:
                    properties["conceptId"] = normalized.concept_id
            graph.add_node(f"{doc_id}:T1", **properties, **extra)
        graph.add_node(
            "d9:T1", entityType="Medication", label="fever", doc_id="d9"
        )

        calls = []

        def counted(surface, label):
            calls.append(label)
            return labels_match(surface, label)

        monkeypatch.setattr(searcher_module, "labels_match", counted)
        expected = {
            "fever": ["d1", "d7", "d8"],  # not the negated twin d2
            "shortness of breath": ["d3"],  # conceptId only
            "cough": ["d4"],  # containment only
            "was": [],  # under 4 characters: no containment
        }
        for surface, doc_ids in expected.items():
            concept = QueryConceptMention(surface, "Sign_symptom", 0, 0)
            calls.clear()
            fast = concept_candidates(graph, normalizer, concept)
            assert len(calls) == len(set(calls)), surface
            scan = concept_candidates_scan(graph, normalizer, concept)
            assert list(fast.items()) == list(scan.items()), surface
            assert list(fast) == doc_ids, surface


class TestQueryParser:
    @pytest.fixture(scope="class")
    def parser(self):
        from repro.corpus.generator import CaseReportGenerator
        from repro.ir.query_parser import QueryParser
        from repro.ner.tagger import NerTagger
        from repro.pipeline import _temporal_doc_from_report
        from repro.temporal.classifier import TemporalClassifier

        generator = CaseReportGenerator(seed=77)
        reports = [generator.generate(f"p{i}") for i in range(16)]
        ner = NerTagger(decoder="crf", epochs=3).fit(
            [r.annotations for r in reports]
        )
        temporal_docs = [_temporal_doc_from_report(r) for r in reports]
        temporal = TemporalClassifier(epochs=8).fit(temporal_docs)
        return QueryParser(ner, temporal)

    def test_extracts_concepts(self, parser):
        parsed = parser.parse(
            "A patient was admitted to the hospital because of chest pain and dyspnea."
        )
        surfaces = {c.surface.lower() for c in parsed.concepts}
        assert "chest pain" in surfaces
        assert "dyspnea" in surfaces

    def test_extracts_relations_between_events(self, parser):
        parsed = parser.parse(
            "The patient developed chest pain accompanied by dyspnea."
        )
        event_concepts = [
            i
            for i, c in enumerate(parsed.concepts)
            if c.entity_type == "Sign_symptom"
        ]
        if len(event_concepts) >= 2:
            assert parsed.relations

    def test_no_relations_single_event(self, parser):
        parsed = parser.parse("The patient had dyspnea.")
        assert parsed.relations == [] or len(parsed.concepts) > 1

    def test_keyword_text_falls_back(self, parser):
        parsed = ParsedQuery(text="raw query")
        assert parsed.keyword_text() == "raw query"
