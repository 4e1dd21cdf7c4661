"""The PDF submission service: SimPDF -> TEI XML -> structured parse.

This is the pipeline stage the paper describes in section II: "a PDF
submission service, based on Grobid, which is able to convert the
publications in PDF format into well organized XML format", with
automatic metadata extraction.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

from repro.exceptions import ParseError, TransientParseError
from repro.grobid.metadata import PublicationMetadata, extract_metadata
from repro.grobid.sections import SectionSpan, segment_sections
from repro.grobid.simpdf import parse_simpdf
from repro.grobid.tei import TeiDocument, parse_tei_xml, to_tei_xml


@dataclass
class ParsedPublication:
    """The service's output: metadata + organized body."""

    metadata: PublicationMetadata
    sections: list[SectionSpan] = field(default_factory=list)
    tei_xml: str = ""

    def body_text(self) -> str:
        """The narrative text for downstream extraction/indexing."""
        return " ".join(section.text for section in self.sections)


class GrobidService:
    """Converts submitted publications into structured parses.

    Accepts either SimPDF content or TEI XML (the two capture formats
    the paper's crawler encounters: "The contents can be captured in
    XML or online PDFs").

    The real Grobid is a remote REST service that can fail transiently;
    two knobs model that:

    Args:
        transient_error_rate: fraction of documents whose *first*
            :meth:`process` call raises :class:`TransientParseError`.
            The decision is keyed on the content (not call order), so
            runs are deterministic under any execution schedule, and a
            retry of the same document succeeds.
        seed: perturbs which documents draw the transient failure.
    """

    def __init__(
        self,
        transient_error_rate: float = 0.0,
        seed: int = 0,
    ):
        self.transient_error_rate = transient_error_rate
        self.seed = seed
        self._attempted: set[int] = set()

    def process(self, content: str) -> ParsedPublication:
        """Dispatch on content type and parse.

        Raises:
            TransientParseError: injected retryable service failure.
            ParseError: the content is neither SimPDF nor TEI XML.
        """
        if self.transient_error_rate > 0.0:
            key = zlib.crc32(content.encode("utf-8")) ^ (self.seed * 2654435761)
            if key not in self._attempted:
                self._attempted.add(key)
                if (key % 10_000) < self.transient_error_rate * 10_000:
                    raise TransientParseError(
                        "simulated transient Grobid failure"
                    )
        stripped = content.lstrip()
        if stripped.startswith("%SimPDF"):
            return self.process_pdf(content)
        if stripped.startswith("<TEI") or stripped.startswith("<?xml"):
            return self.process_xml(content)
        raise ParseError("unrecognized publication format")

    def process_pdf(self, simpdf_content: str) -> ParsedPublication:
        """SimPDF -> (metadata, sections, TEI XML)."""
        pdf = parse_simpdf(simpdf_content)
        metadata = extract_metadata(pdf)
        sections = segment_sections(pdf)
        tei = TeiDocument(
            title=metadata.title,
            authors=list(metadata.authors),
            affiliations=list(metadata.affiliations),
            abstract=metadata.abstract,
            sections=[(s.heading, s.text) for s in sections],
        )
        return ParsedPublication(
            metadata=metadata,
            sections=sections,
            tei_xml=to_tei_xml(tei),
        )

    def process_xml(self, xml_content: str) -> ParsedPublication:
        """TEI XML -> structured parse (no layout heuristics needed)."""
        if xml_content.lstrip().startswith("<?xml"):
            xml_content = xml_content.split("?>", 1)[1]
        tei = parse_tei_xml(xml_content)
        metadata = PublicationMetadata(
            title=tei.title,
            authors=list(tei.authors),
            affiliations=list(tei.affiliations),
            abstract=tei.abstract,
        )
        from repro.text.tokenize import SentenceSplitter

        splitter = SentenceSplitter()
        sections = [
            SectionSpan(
                name=_canonical(heading),
                heading=heading,
                text=paragraph,
                sentences=tuple(splitter.split_texts(paragraph)),
            )
            for heading, paragraph in tei.sections
        ]
        return ParsedPublication(
            metadata=metadata, sections=sections, tei_xml=to_tei_xml(tei)
        )


def _canonical(heading: str) -> str:
    from repro.grobid.sections import canonical_heading

    return canonical_heading(heading)
