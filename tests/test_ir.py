"""Tests for CREATe-IR: ranking utilities, indexer, searcher, parser."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import repro.ir.ranking as ranking_module
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
            assert list(fast.by_doc.items()) == list(scan.by_doc.items()), (
                concept
            )
            assert fast.similarity == scan.similarity, concept
            assert fast.by_doc, concept

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

        # The per-label decision is score_label; every stem goes through
        # ranking.stem_tokens, which the searcher imports by name and
        # label_stems calls on a memo miss.
        ranking_module.label_stems.cache_clear()
        decided, stemmed = [], []
        score_label = searcher_module.score_label
        stem_tokens = ranking_module.stem_tokens

        def counted_score(surface, surface_stems, label, node_stems):
            decided.append(label)
            return score_label(surface, surface_stems, label, node_stems)

        def counted_stem(text):
            stemmed.append(text)
            return stem_tokens(text)

        monkeypatch.setattr(searcher_module, "score_label", counted_score)
        monkeypatch.setattr(searcher_module, "stem_tokens", counted_stem)
        monkeypatch.setattr(ranking_module, "stem_tokens", counted_stem)
        type_labels = {
            str(node.get("label", ""))
            for node in graph.find_nodes(entityType="Sign_symptom")
        }
        expected = {
            "fever": ["d1", "d7", "d8"],  # not the negated twin d2
            "shortness of breath": ["d3"],  # conceptId only
            "cough": ["d4"],  # containment only
            "was": [],  # under 4 characters: no containment
        }
        # Twice over: the second round shows surfaces are never memoised.
        for i, (surface, doc_ids) in enumerate(list(expected.items()) * 2):
            concept = QueryConceptMention(surface, "Sign_symptom", 0, 0)
            decided.clear()
            stemmed.clear()
            fast = concept_candidates(graph, normalizer, concept)
            # One decision per distinct (type, label) and one stem of the
            # surface per concept; each label is stemmed once per
            # process, so on the first concept and on no later one.
            assert sorted(decided) == sorted(type_labels), surface
            assert stemmed[0] == surface, surface
            assert sorted(stemmed[1:]) == (
                sorted(type_labels) if i == 0 else []
            ), surface
            scan = concept_candidates_scan(graph, normalizer, concept)
            assert list(fast.by_doc.items()) == list(scan.by_doc.items()), (
                surface
            )
            assert fast.similarity == scan.similarity, surface
            assert list(fast.by_doc) == doc_ids, surface

    def test_the_label_memo_holds_labels_never_surfaces(self, small_corpus):
        indexer = build_index(small_corpus)
        graph = indexer.graph
        entity_types = sorted(
            {node.get("entityType") for node in graph.nodes()}, key=str
        )
        assert len(entity_types) < 50
        bucket_labels = {
            label
            for entity_type in entity_types
            for label in graph.type_labels(entity_type)
        }
        ranking_module.label_stems.cache_clear()
        for i in range(50):
            entity_type = entity_types[i % len(entity_types)]
            concept = QueryConceptMention(
                f"novel finding {i}", entity_type, 0, 0
            )
            concept_candidates(graph, indexer.normalizer, concept)
        info = ranking_module.label_stems.cache_info()
        assert info.maxsize == 1 << 16
        assert info.currsize == len(bucket_labels) > 0

    def test_the_scan_stems_every_node_label_on_every_call(
        self, small_corpus, monkeypatch
    ):
        indexer = build_index(small_corpus)
        graph = indexer.graph
        concept = QueryConceptMention(
            "crushing chest pain", "Sign_symptom", 0, 0
        )
        nodes = list(graph.find_nodes(entityType="Sign_symptom"))
        labels = graph.type_labels("Sign_symptom")
        assert len(nodes) > len(labels)
        assert concept.surface not in labels
        # Warm the label memo first: the scan must not read it.
        concept_candidates(graph, indexer.normalizer, concept)
        stem_tokens = ranking_module.stem_tokens
        stemmed = []

        def counted_stem(text):
            stemmed.append(text)
            return stem_tokens(text)

        monkeypatch.setattr(ranking_module, "stem_tokens", counted_stem)
        for _ in range(2):
            stemmed.clear()
            concept_candidates_scan(graph, indexer.normalizer, concept)
            label_calls = [t for t in stemmed if t != concept.surface]
            assert len(label_calls) >= len(nodes)
            for label, node_ids in labels.items():
                assert label_calls.count(label) >= len(node_ids), label


# Arbitrary text, with combining marks, U+2028 and hyphens drawn often.
_ANY_TEXT = st.text(
    alphabet=st.one_of(
        st.characters(), st.sampled_from("\u0301\u0308\u2028 -\nae")
    ),
    max_size=24,
)


class TestLabelStems:
    @settings(max_examples=300, deadline=None)
    @given(surface=_ANY_TEXT, label=_ANY_TEXT)
    def test_memoised_label_stems_score_like_fresh_ones(self, surface, label):
        stem_tokens = ranking_module.stem_tokens
        label_stems = ranking_module.label_stems
        score_label = ranking_module.score_label
        surface_stems = stem_tokens(surface)
        fresh = score_label(surface, surface_stems, label, stem_tokens(label))
        for _ in range(2):  # the first call may fill the memo
            assert label_stems(label) == stem_tokens(label)
            assert score_label(
                surface, surface_stems, label, label_stems(label)
            ) == fresh


# Random add_node / remove_node streams over a few ids, so merges that
# change label, entityType, negated or conceptId happen often.
_BUCKET_TYPES = ["Sign_symptom", "Medication"]
_BUCKET_SURFACES = ["fever", "shortness of breath", "cough", "was"]
_CONCEPT_IDS = {"fever": "C-fever", "shortness of breath": "C-dyspnea"}


class _StubNormalizer:
    def normalize(self, surface):
        concept_id = _CONCEPT_IDS.get(surface)
        return None if concept_id is None else SimpleNamespace(
            concept_id=concept_id
        )


def _optional(values):
    return st.one_of(st.just(None), st.sampled_from(values))


_NODE_PROPERTIES = st.fixed_dictionaries(
    {},
    optional={
        "entityType": st.sampled_from(_BUCKET_TYPES + [None]),
        "label": _optional(
            ["fever", "Fever", "a mild cough", "dyspnea", "was", ""]
        ),
        "negated": st.booleans(),
        "conceptId": st.sampled_from(sorted(_CONCEPT_IDS.values())),
        "doc_id": st.sampled_from(["d0", "d1", "d2"]),
    },
)
_GRAPH_STEPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"),
            st.sampled_from([f"n{i}" for i in range(5)]),
            _NODE_PROPERTIES,
        ),
        st.tuples(
            st.just("remove"),
            st.sampled_from([f"n{i}" for i in range(5)]),
            st.just({}),
        ),
    ),
    max_size=12,
)


def _graph(indexed: bool) -> PropertyGraph:
    graph = PropertyGraph()
    if indexed:
        for key in ("entityType", "doc_id", "conceptId"):
            graph.create_property_index(key)
    return graph


class TestConceptBuckets:
    @settings(max_examples=80, deadline=None)
    @given(steps=_GRAPH_STEPS, indexed=st.booleans())
    def test_buckets_stay_exact_under_merges_and_removes(
        self, steps, indexed
    ):
        graph = _graph(indexed)
        normalizer = _StubNormalizer()
        for op, node_id, properties in steps:
            if op == "add":
                graph.add_node(node_id, **properties)
            else:
                graph.remove_node(node_id)
            one_pass = _graph(indexed)
            for node in graph.nodes():
                one_pass.add_node(node.node_id, **node.properties)
            assert graph.statistics() == one_pass.statistics()
            for entity_type in _BUCKET_TYPES:
                assert dict(graph.type_labels(entity_type)) == dict(
                    one_pass.type_labels(entity_type)
                )
                for surface in _BUCKET_SURFACES:
                    concept = QueryConceptMention(surface, entity_type, 0, 0)
                    fast = concept_candidates(graph, normalizer, concept)
                    scan = concept_candidates_scan(graph, normalizer, concept)
                    assert list(fast.by_doc.items()) == list(
                        scan.by_doc.items()
                    )
                    assert fast.similarity == scan.similarity
                    for label, similarity in fast.similarity.items():
                        assert similarity == label_similarity(surface, label)


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
