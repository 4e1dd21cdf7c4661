"""Tests for the corpus export formats (BRAT directory, CoNLL)."""

from repro.corpus.export import (
    export_brat_directory,
    export_conll,
    parse_conll,
    to_conll,
)


class TestBratExport:
    def test_directory_roundtrip(self, cvd_reports, tmp_path):
        from repro.annotation.brat import read_document

        docs = [r.annotations for r in cvd_reports[:3]]
        assert export_brat_directory(docs, tmp_path) == 3
        for doc in docs:
            loaded = read_document(tmp_path / f"{doc.doc_id}.txt")
            assert len(loaded.textbounds) == len(doc.textbounds)


class TestConll:
    def test_to_conll_shape(self, one_report):
        content = to_conll(one_report.annotations)
        lines = [l for l in content.splitlines() if l]
        assert all("\t" in line for line in lines)
        tags = {line.split("\t")[1] for line in lines}
        assert "O" in tags
        assert any(tag.startswith("B-") for tag in tags)

    def test_export_and_parse_roundtrip(self, cvd_reports, tmp_path):
        docs = [r.annotations for r in cvd_reports[:2]]
        path = tmp_path / "corpus.conll"
        assert export_conll(docs, path) == 2
        sentences = parse_conll(path.read_text())
        assert sentences
        # Token streams match the originals.
        from repro.text.tokenize import split_sentences, tokenize

        expected = []
        for doc in docs:
            for start, end in split_sentences(doc.text):
                expected.append(
                    [t.text for t in tokenize(doc.text[start:end])]
                )
        assert [
            [token for token, _tag in sentence] for sentence in sentences
        ] == expected

    def test_tags_consistent_with_gold(self, one_report):
        content = to_conll(one_report.annotations)
        sentences = parse_conll(content)
        gold_surfaces = {
            tb.text
            for tb in one_report.annotations.textbounds.values()
            if " " not in tb.text
        }
        tagged = {
            token
            for sentence in sentences
            for token, tag in sentence
            if tag.startswith("B-")
        }
        # Every single-token gold surface appears B-tagged somewhere.
        assert gold_surfaces & tagged
