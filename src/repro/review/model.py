"""Object model for evidence-grounded extraction review.

The paper's BRAT workflow has medical experts verify extracted case
reports; this module gives each extracted value a reviewable identity.
A :class:`Claim` ties one extracted mention or relation to its source
evidence — the report id, the BRAT span id, and the exact character
offsets — so a reviewer always judges the value *against the text that
produced it*.  A :class:`Decision` records one reviewer's verdict:
``accept`` the extraction as-is, ``edit`` it (corrected label and/or
offsets), or ``reject`` it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ReviewError

VERDICTS = ("accept", "edit", "reject")

MENTION = "mention"
RELATION = "relation"


def claim_id_for(doc_id: str, ann_id: str) -> str:
    """Stable claim identity: ``<report id>:<span id>``."""
    return f"{doc_id}:{ann_id}"


@dataclass(frozen=True, slots=True)
class Claim:
    """One extracted value awaiting (or past) human review.

    Attributes:
        claim_id: ``<doc_id>:<span_id>`` (stable across restarts).
        doc_id: the stored report this claim was extracted from.
        span_id: BRAT annotation id of the mention (``T``) or relation
            (``R``) inside that report's annotation document.
        kind: :data:`MENTION` or :data:`RELATION`.
        label: extracted entity type / relation label.
        value: the extracted surface value (mention text; for
            relations, ``<source> -LABEL-> <target>``).
        start / end: character offsets of the supporting evidence in
            the report text (for relations, the envelope of both
            endpoint spans).
        negated: whether the extractor marked the mention negated.
        source / target: endpoint span ids for relation claims
            (empty strings for mentions).
    """

    claim_id: str
    doc_id: str
    span_id: str
    kind: str
    label: str
    value: str
    start: int
    end: int
    negated: bool = False
    source: str = ""
    target: str = ""

    def __post_init__(self) -> None:
        if self.kind not in (MENTION, RELATION):
            raise ReviewError(f"unknown claim kind {self.kind!r}")
        if self.start < 0 or self.end <= self.start:
            raise ReviewError(
                f"{self.claim_id}: invalid evidence span "
                f"[{self.start}, {self.end})"
            )

    def to_json(self) -> dict:
        return {
            "claim_id": self.claim_id,
            "doc_id": self.doc_id,
            "span_id": self.span_id,
            "kind": self.kind,
            "label": self.label,
            "value": self.value,
            "start": self.start,
            "end": self.end,
            "negated": self.negated,
            "source": self.source,
            "target": self.target,
        }


@dataclass(frozen=True, slots=True)
class Decision:
    """One reviewer's verdict on one claim.

    ``label``/``start``/``end`` carry the correction for ``edit``
    verdicts (any subset may be given; omitted fields keep the claim's
    original value).  They are ``None`` for accept/reject.
    """

    claim_id: str
    reviewer: str
    verdict: str
    label: str | None = None
    start: int | None = None
    end: int | None = None
    note: str = ""

    def __post_init__(self) -> None:
        if self.verdict not in VERDICTS:
            raise ReviewError(
                f"verdict must be one of {VERDICTS}, got {self.verdict!r}"
            )
        if not self.reviewer:
            raise ReviewError("decision requires a reviewer name")
        if self.verdict != "edit" and (
            self.label is not None
            or self.start is not None
            or self.end is not None
        ):
            raise ReviewError(
                f"{self.verdict} decisions carry no correction fields"
            )
        if self.verdict == "edit" and (
            self.label is None and self.start is None and self.end is None
        ):
            raise ReviewError(
                "edit decisions must correct the label and/or the offsets"
            )
        if (self.start is None) != (self.end is None):
            raise ReviewError(
                "corrected offsets require both start and end"
            )
        if self.start is not None and (
            self.start < 0 or self.end <= self.start
        ):
            raise ReviewError(
                f"invalid corrected span [{self.start}, {self.end})"
            )

    def to_json(self) -> dict:
        return {
            "claim_id": self.claim_id,
            "reviewer": self.reviewer,
            "verdict": self.verdict,
            "label": self.label,
            "start": self.start,
            "end": self.end,
            "note": self.note,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "Decision":
        try:
            start = payload.get("start")
            end = payload.get("end")
            return cls(
                claim_id=str(payload["claim_id"]),
                reviewer=str(payload["reviewer"]),
                verdict=str(payload["verdict"]),
                label=(
                    None
                    if payload.get("label") is None
                    else str(payload["label"])
                ),
                start=None if start is None else int(start),
                end=None if end is None else int(end),
                note=str(payload.get("note", "")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ReviewError(f"malformed decision payload: {exc}") from exc
