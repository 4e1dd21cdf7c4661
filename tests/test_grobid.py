"""Tests for the Grobid analog: SimPDF, TEI XML, metadata, sections."""

import pytest

from repro.exceptions import ParseError
from repro.grobid.metadata import extract_metadata, _looks_like_author_list
from repro.grobid.sections import canonical_heading, segment_sections
from repro.grobid.service import GrobidService
from repro.grobid.simpdf import parse_simpdf, render_simpdf
from repro.grobid.tei import TeiDocument, parse_tei_xml, to_tei_xml

TITLE = "A case of atrial fibrillation presenting with syncope"
AUTHORS = ["Wei Chen", "Maria Garcia"]
AFFILS = ["Department of Cardiology, University Hospital"]
ABSTRACT = "We report a case of atrial fibrillation."
SECTIONS = [
    ("Presentation", "The patient presented with syncope."),
    ("Treatment", "Amiodarone was started."),
]


def sample_simpdf():
    return render_simpdf(TITLE, AUTHORS, AFFILS, ABSTRACT, SECTIONS)


class TestSimPdf:
    def test_roundtrip_blocks(self):
        pdf = parse_simpdf(sample_simpdf())
        assert pdf.n_pages >= 1
        texts = [b.text for b in pdf.page_blocks(1)]
        assert TITLE in texts

    def test_reading_order(self):
        pdf = parse_simpdf(sample_simpdf())
        blocks = pdf.page_blocks(1)
        ys = [b.y for b in blocks]
        assert ys == sorted(ys)

    def test_full_text_contains_everything(self):
        text = parse_simpdf(sample_simpdf()).full_text()
        assert TITLE in text
        assert "Amiodarone was started." in text

    def test_missing_header_rejected(self):
        with pytest.raises(ParseError):
            parse_simpdf("PAGE 1\n")

    def test_block_before_page_rejected(self):
        with pytest.raises(ParseError):
            parse_simpdf("%SimPDF 1.0\nBLOCK x=0 y=0\nhello\nENDBLOCK\n")

    def test_unterminated_block_rejected(self):
        with pytest.raises(ParseError):
            parse_simpdf("%SimPDF 1.0\nPAGE 1\nBLOCK x=0 y=0\nhello\n")

    def test_bad_attribute_rejected(self):
        with pytest.raises(ParseError):
            parse_simpdf("%SimPDF 1.0\nPAGE 1\nBLOCK x=abc y=0\nh\nENDBLOCK\n")

    def test_long_documents_paginate(self):
        sections = [(f"Section {i}", "text " * 10) for i in range(20)]
        pdf = parse_simpdf(
            render_simpdf(TITLE, AUTHORS, AFFILS, ABSTRACT, sections)
        )
        assert pdf.n_pages > 1


class TestTei:
    def test_roundtrip(self):
        doc = TeiDocument(
            title=TITLE,
            authors=list(AUTHORS),
            affiliations=list(AFFILS),
            abstract=ABSTRACT,
            sections=list(SECTIONS),
        )
        parsed = parse_tei_xml(to_tei_xml(doc))
        assert parsed.title == TITLE
        assert parsed.authors == AUTHORS
        assert parsed.affiliations == AFFILS
        assert parsed.abstract == ABSTRACT
        assert parsed.sections == SECTIONS

    def test_body_text(self):
        doc = TeiDocument(sections=list(SECTIONS))
        assert "syncope" in doc.body_text()

    def test_malformed_xml_rejected(self):
        with pytest.raises(ParseError):
            parse_tei_xml("<TEI><unclosed>")
        # JSON "\ud800" decodes to a str that cannot be encoded as UTF-8.
        with pytest.raises(ParseError):
            parse_tei_xml("<TEI>\ud800</TEI>")

    def test_wrong_root_rejected(self):
        with pytest.raises(ParseError):
            parse_tei_xml("<html></html>")


class TestMetadata:
    def test_title_is_largest_font(self):
        meta = extract_metadata(parse_simpdf(sample_simpdf()))
        assert meta.title == TITLE

    def test_authors_extracted(self):
        meta = extract_metadata(parse_simpdf(sample_simpdf()))
        assert meta.authors == AUTHORS

    def test_affiliations_extracted(self):
        meta = extract_metadata(parse_simpdf(sample_simpdf()))
        assert meta.affiliations == AFFILS

    def test_abstract_extracted(self):
        meta = extract_metadata(parse_simpdf(sample_simpdf()))
        assert meta.abstract == ABSTRACT

    def test_empty_pdf(self):
        from repro.grobid.simpdf import SimPdfDocument

        meta = extract_metadata(SimPdfDocument())
        assert meta.title == ""

    def test_author_list_heuristic(self):
        assert _looks_like_author_list("Wei Chen, Maria Garcia")
        assert not _looks_like_author_list("the patient was admitted here")
        assert not _looks_like_author_list("")


class TestSections:
    def test_canonical_headings(self):
        assert canonical_heading("Case Presentation") == "presentation"
        assert canonical_heading("MANAGEMENT") == "treatment"
        assert canonical_heading("Weird Heading") == "other"

    def test_segment_pairs_headings_with_paragraphs(self):
        sections = segment_sections(parse_simpdf(sample_simpdf()))
        names = [s.name for s in sections]
        assert names == ["presentation", "treatment"]
        assert sections[0].sentences

    def test_title_block_not_a_section(self):
        sections = segment_sections(parse_simpdf(sample_simpdf()))
        assert all(TITLE not in s.text for s in sections)


class TestGrobidService:
    def test_pdf_pipeline(self):
        pub = GrobidService().process(sample_simpdf())
        assert pub.metadata.title == TITLE
        assert "syncope" in pub.body_text()
        assert pub.tei_xml.startswith("<TEI>")

    def test_xml_pipeline(self):
        tei = to_tei_xml(
            TeiDocument(
                title=TITLE,
                authors=list(AUTHORS),
                abstract=ABSTRACT,
                sections=list(SECTIONS),
            )
        )
        pub = GrobidService().process(tei)
        assert pub.metadata.title == TITLE
        assert len(pub.sections) == 2

    def test_xml_declaration_tolerated(self):
        tei = '<?xml version="1.0"?>' + to_tei_xml(
            TeiDocument(title=TITLE)
        )
        assert GrobidService().process(tei).metadata.title == TITLE

    def test_unknown_format_rejected(self):
        with pytest.raises(ParseError):
            GrobidService().process("just some text")

    def test_tei_roundtrip_through_service(self):
        pub = GrobidService().process(sample_simpdf())
        again = GrobidService().process(pub.tei_xml)
        assert again.metadata.title == TITLE
        assert [s.heading for s in again.sections] == [
            s.heading for s in pub.sections
        ]
