"""Edge-branch coverage: fallback paths not exercised elsewhere."""

import numpy as np
import pytest

from repro.corpus.generator import CaseReportGenerator
from repro.temporal.graph import TemporalGraph
from repro.viz.timeline import timeline_order


class TestTimelineCycleFallback:
    def test_unorderable_groups_still_render(self):
        # A BEFORE cycle cannot be topologically ordered; timeline_order
        # must still return every event exactly once.
        graph = TemporalGraph()
        graph.add("a", "b", "BEFORE")
        graph.add("b", "c", "BEFORE")
        graph.add("c", "a", "BEFORE")  # stored, contradiction surfaces
        columns = timeline_order(graph)
        flattened = [event for column in columns for event in column]
        assert sorted(flattened) == ["a", "b", "c"]


class TestQueryParserWithoutTemporal:
    def test_relations_skipped(self, demo_system):
        from repro.ir.query_parser import QueryParser

        pipeline, _ = demo_system
        parser = QueryParser(pipeline.extractor.ner, None)
        parsed = parser.parse(
            "The patient had chest pain accompanied by dyspnea."
        )
        assert parsed.relations == []


class TestExtractorLocalOnly:
    def test_without_temporal_model(self, demo_system):
        from repro.pipeline import ClinicalExtractor

        pipeline, _ = demo_system
        ner_only = ClinicalExtractor(pipeline.extractor.ner, None)
        text = CaseReportGenerator(seed=778).generate("ner").text
        extracted = ner_only.extract("ner", text)
        assert extracted.textbounds
        assert not extracted.relations


class TestLayoutDegenerateInputs:
    def test_two_coincident_seeded_nodes(self):
        from repro.viz.force_layout import ForceLayout

        result = ForceLayout(seed=1, iterations=50).layout(
            ["a", "b"], [("a", "b")]
        )
        (ax, ay), (bx, by) = result.positions["a"], result.positions["b"]
        assert (ax, ay) != (bx, by)

    def test_self_loop_edges_ignored(self):
        from repro.viz.force_layout import ForceLayout

        result = ForceLayout(seed=2, iterations=10).layout(
            ["a", "b"], [("a", "a"), ("a", "b")]
        )
        assert len(result.positions) == 2


class TestEmbedderDegenerateTokens:
    def test_single_char_token(self):
        from repro.ml.embeddings import CharNgramEmbedder

        embedder = CharNgramEmbedder(dim=8).fit(
            [["a", "bb", "fever"]] * 3
        )
        vector = embedder.token_vector("a")
        assert vector.shape == (8,)

    def test_contextual_empty_sentence(self):
        from repro.ml.embeddings import CharNgramEmbedder

        embedder = CharNgramEmbedder(dim=8).fit([["fever"]])
        assert embedder.contextual_vectors([]).shape == (0, 24)
