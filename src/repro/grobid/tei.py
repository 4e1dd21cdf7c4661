"""TEI-like XML: the "well organized XML format" Grobid emits.

A tiny dialect of TEI sufficient for CREATe's pipeline: header with
title/authors/affiliations, an abstract, and body divisions with
headings.  Uses :mod:`xml.etree.ElementTree` for emission and parsing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from xml.etree import ElementTree

from repro.exceptions import ParseError


@dataclass
class TeiDocument:
    """Structured publication content."""

    title: str = ""
    authors: list[str] = field(default_factory=list)
    affiliations: list[str] = field(default_factory=list)
    abstract: str = ""
    sections: list[tuple[str, str]] = field(default_factory=list)

    def body_text(self) -> str:
        """All section paragraphs joined (the narrative CREATe indexes)."""
        return " ".join(paragraph for _head, paragraph in self.sections)


def to_tei_xml(doc: TeiDocument) -> str:
    """Serialize a :class:`TeiDocument` to TEI-like XML."""
    tei = ElementTree.Element("TEI")
    header = ElementTree.SubElement(tei, "teiHeader")
    file_desc = ElementTree.SubElement(header, "fileDesc")
    title_stmt = ElementTree.SubElement(file_desc, "titleStmt")
    ElementTree.SubElement(title_stmt, "title").text = doc.title
    source = ElementTree.SubElement(file_desc, "sourceDesc")
    for author in doc.authors:
        ElementTree.SubElement(source, "author").text = author
    for affiliation in doc.affiliations:
        ElementTree.SubElement(source, "affiliation").text = affiliation
    ElementTree.SubElement(header, "abstract").text = doc.abstract

    text_el = ElementTree.SubElement(tei, "text")
    body = ElementTree.SubElement(text_el, "body")
    for heading, paragraph in doc.sections:
        div = ElementTree.SubElement(body, "div")
        ElementTree.SubElement(div, "head").text = heading
        ElementTree.SubElement(div, "p").text = paragraph
    return ElementTree.tostring(tei, encoding="unicode")


def parse_tei_xml(xml_content: str) -> TeiDocument:
    """Parse TEI-like XML back into a :class:`TeiDocument`.

    Raises:
        ParseError: malformed XML, text that cannot be encoded as UTF-8
            (a lone surrogate), or a missing TEI root.
    """
    try:
        root = ElementTree.fromstring(xml_content)
    except (ElementTree.ParseError, UnicodeEncodeError) as exc:
        raise ParseError(f"malformed XML: {exc}") from exc
    if root.tag != "TEI":
        raise ParseError(f"expected <TEI> root, got <{root.tag}>")
    doc = TeiDocument()
    title_el = root.find("./teiHeader/fileDesc/titleStmt/title")
    doc.title = (title_el.text or "") if title_el is not None else ""
    doc.authors = [
        el.text or ""
        for el in root.findall("./teiHeader/fileDesc/sourceDesc/author")
    ]
    doc.affiliations = [
        el.text or ""
        for el in root.findall("./teiHeader/fileDesc/sourceDesc/affiliation")
    ]
    abstract_el = root.find("./teiHeader/abstract")
    doc.abstract = (
        (abstract_el.text or "") if abstract_el is not None else ""
    )
    for div in root.findall("./text/body/div"):
        head_el = div.find("head")
        p_el = div.find("p")
        doc.sections.append(
            (
                (head_el.text or "") if head_el is not None else "",
                (p_el.text or "") if p_el is not None else "",
            )
        )
    return doc
