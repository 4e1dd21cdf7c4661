"""The durable review queue: claim -> decide -> commit, WAL-replayable.

Every extracted mention/relation of an enrolled report becomes a
:class:`~repro.review.model.Claim`; reviewers pull queued claims and
record accept/edit/reject :class:`~repro.review.model.Decision`\\ s.
The queue speaks the :class:`repro.durability.Durable` protocol — under
a :class:`~repro.durability.DurabilityManager` it journals one
``review`` op per logical mutation, so a report's docstore insert and
its enrollment land in **one** WAL commit record, and an acknowledged
decision survives crash-replay.

Closing the loop, :meth:`ReviewQueue.accepted_corrections` exports the
reviewer-corrected documents as BIO-encoded CRF training examples
(:mod:`repro.ner.encoding`), so accepted edits retrain the tagger.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.annotation.agreement import AgreementReport, agreement, cohens_kappa
from repro.annotation.brat import parse_ann_unverified, serialize_ann
from repro.annotation.model import AnnotationDocument
from repro.durability.wal import encode_record
from repro.exceptions import AnnotationError, ReviewError
from repro.ner.encoding import bio_encode, spans_of_document
from repro.review.model import (
    MENTION,
    RELATION,
    Claim,
    Decision,
    claim_id_for,
)
from repro.text.tokenize import Token, tokenize


@dataclass(frozen=True, slots=True)
class ReviewExample:
    """One reviewer-corrected document as CRF training material."""

    doc_id: str
    document: AnnotationDocument
    tokens: list[Token]
    labels: list[str]  # BIO tags aligned with ``tokens``


@dataclass(frozen=True, slots=True)
class PairAgreement:
    """Inter-reviewer agreement over doubly-reviewed claims."""

    reviewer_a: str
    reviewer_b: str
    n_claims: int
    verdict_kappa: float
    report: AgreementReport


class ReviewQueue:
    """Claims and decisions over the stored report corpus.

    The queue is the one owner of each enrolled report's annotation
    document (:meth:`annotations`); claims are derived from it, never
    stored beside it.  State is three insertion-ordered maps —
    annotation documents, their claims, and per-claim decision lists —
    every mutation of which journals a replayable op when
    :attr:`journal` is a list (the ``Durable`` contract; the durability
    manager seals journals into WAL records).  The journal and the
    snapshot carry a report as its text plus BRAT standoff; enrollment
    reads that standoff back and enrolls the result, so replay rebuilds
    the very document, and derives the very claims, the live queue holds.
    Each mutation encodes its op before it touches memory, then
    applies, then appends: an op the WAL cannot encode raises with the
    queue unchanged.

    A claim is *queued* until its first decision and *decided* after;
    later reviewers may still decide a decided claim (double review,
    feeding :meth:`pair_agreement`), and a reviewer re-deciding a claim
    replaces their earlier verdict.
    """

    def __init__(self):
        self._documents: dict[str, AnnotationDocument] = {}
        self._claims: dict[str, Claim] = {}
        self._decisions: dict[str, list[Decision]] = {}
        self.journal: list | None = None

    # -- enrollment --------------------------------------------------------

    def enqueue_document(
        self, doc_id: str, annotations: AnnotationDocument
    ) -> list[Claim]:
        """Turn every extracted mention/relation into a queued claim.

        ``doc_id`` — the stored report's id, not whatever id the
        extractor gave ``annotations`` — keys the document and its
        claims.  What is enrolled is ``annotations`` as read back from
        its own standoff: a copy in standoff order that shares nothing
        mutable with the caller's object, and exactly what replay of
        the journaled op rebuilds.  Returns the new claims in queue
        order.

        Raises:
            ReviewError: the report is already enrolled (drop it
                first), or its annotations do not survive their own
                standoff (a label with a space, a note with a line
                break, a span whose recorded text is not its slice).
        """
        annotations = replace(annotations, doc_id=doc_id)
        payload = self._document_payload(annotations)
        document = self._document_of_payload(payload)
        if document != annotations:
            raise ReviewError(
                f"report {doc_id!r}: annotations do not survive their "
                "own standoff"
            )
        op = self._encoded({"op": "enqueue", **payload})
        claims = self._apply_enqueue(document)
        self._log(op)
        return claims

    def drop_document(self, doc_id: str) -> int:
        """Remove a report's claims and decisions (e.g. report deleted).

        Returns the number of claims removed (0 when not enrolled).
        """
        enrolled = doc_id in self._documents
        # Journal even a zero-claim drop: the enrollment itself is
        # state, and replay must forget it too.
        op = self._encoded({"op": "drop", "doc": doc_id}) if enrolled else None
        removed = self._apply_drop(doc_id)
        if op is not None:
            self._log(op)
        return removed

    # -- review ------------------------------------------------------------

    def decide(
        self,
        claim_id: str,
        reviewer: str,
        verdict: str,
        label: str | None = None,
        start: int | None = None,
        end: int | None = None,
        note: str = "",
    ) -> Decision:
        """Record one reviewer's verdict on one claim.

        Raises:
            ReviewError: unknown claim, malformed verdict/correction,
                corrected offsets outside the report text, or offset
                corrections on a relation claim (only the label of a
                relation can be edited).
        """
        claim = self._claims.get(claim_id)
        if claim is None:
            raise ReviewError(f"unknown claim {claim_id!r}")
        decision = Decision(
            claim_id=claim_id,
            reviewer=reviewer,
            verdict=verdict,
            label=label,
            start=start,
            end=end,
            note=note,
        )
        self._validate_correction(claim, decision)
        op = self._encoded({"op": "decide", "decision": decision.to_json()})
        self._apply_decision(decision)
        self._log(op)
        return decision

    # -- queries -----------------------------------------------------------

    def claim(self, claim_id: str) -> Claim | None:
        return self._claims.get(claim_id)

    def decisions_of(self, claim_id: str) -> list[Decision]:
        """The claim's decisions, oldest reviewer verdict first (a
        re-decide moves that reviewer to the end)."""
        return list(self._decisions.get(claim_id, ()))

    def effective_decision(self, claim_id: str) -> Decision | None:
        """The most recently recorded verdict, or None while queued."""
        decisions = self._decisions.get(claim_id)
        return decisions[-1] if decisions else None

    def is_queued(self, claim_id: str) -> bool:
        return claim_id in self._claims and not self._decisions.get(claim_id)

    def queued(self, doc_id: str | None = None) -> list[Claim]:
        """Undecided claims in queue order (optionally one report's)."""
        return [
            claim
            for claim in self._claims.values()
            if not self._decisions.get(claim.claim_id)
            and (doc_id is None or claim.doc_id == doc_id)
        ]

    def decided(self, doc_id: str | None = None) -> list[Claim]:
        """Claims with at least one decision, in queue order."""
        return [
            claim
            for claim in self._claims.values()
            if self._decisions.get(claim.claim_id)
            and (doc_id is None or claim.doc_id == doc_id)
        ]

    def claims_of(self, doc_id: str) -> list[Claim]:
        """All of one report's claims in queue order."""
        return [
            claim
            for claim in self._claims.values()
            if claim.doc_id == doc_id
        ]

    def annotations(self, doc_id: str) -> AnnotationDocument | None:
        """The enrolled report's annotation document (None when not
        enrolled) — what ``/ann``, ``/html``, cohort criteria and the
        FHIR export read."""
        return self._documents.get(doc_id)

    def documents(self) -> list[str]:
        """Enrolled report ids in enrollment order."""
        return list(self._documents)

    def stats(self) -> dict:
        """The ``/stats`` review section: queue depth, decided counts
        by verdict, and per-reviewer counters."""
        by_verdict = {"accept": 0, "edit": 0, "reject": 0}
        reviewers: dict[str, int] = {}
        double_reviewed = 0
        decided = 0
        for claim_id in self._claims:
            decisions = self._decisions.get(claim_id)
            if not decisions:
                continue
            decided += 1
            by_verdict[decisions[-1].verdict] += 1
            if len(decisions) >= 2:
                double_reviewed += 1
            for decision in decisions:
                reviewers[decision.reviewer] = (
                    reviewers.get(decision.reviewer, 0) + 1
                )
        return {
            "documents": len(self._documents),
            "claims": len(self._claims),
            "queue_depth": len(self._claims) - decided,
            "decided": decided,
            "by_verdict": by_verdict,
            "double_reviewed": double_reviewed,
            "reviewers": dict(sorted(reviewers.items())),
        }

    # -- the feedback loop -------------------------------------------------

    def corrected_document(
        self, doc_id: str, reviewer: str | None = None
    ) -> AnnotationDocument:
        """The report's annotations as amended by review decisions.

        Accepted claims keep their extracted span, edited claims take
        the corrected label/offsets, rejected and still-queued claims
        are dropped (only verified content counts as gold).  With
        ``reviewer`` the view is restricted to that reviewer's own
        verdicts; otherwise each claim's effective (latest) decision
        applies.

        Raises:
            ReviewError: the report is not enrolled.
        """
        if doc_id not in self._documents:
            raise ReviewError(f"report {doc_id!r} is not enrolled")
        return self._reviewed_document(doc_id, reviewer)

    def accepted_corrections(self) -> list[ReviewExample]:
        """Reviewer-verified documents as incremental CRF training data.

        One example per enrolled report with at least one accepted or
        edited mention claim: the corrected annotation document plus
        its token sequence and BIO tag sequence
        (:func:`repro.ner.encoding.bio_encode`), ready to extend a
        :class:`repro.ner.tagger.NerTagger` training set.
        """
        examples = []
        for doc_id in self._documents:
            verified = [
                claim
                for claim in self.claims_of(doc_id)
                if claim.kind == MENTION
                and (decision := self.effective_decision(claim.claim_id))
                is not None
                and decision.verdict in ("accept", "edit")
            ]
            if not verified:
                continue
            document = self.corrected_document(doc_id)
            tokens = tokenize(document.text)
            labels = bio_encode(tokens, spans_of_document(document))
            examples.append(
                ReviewExample(doc_id, document, tokens, labels)
            )
        return examples

    def pair_agreement(self) -> PairAgreement | None:
        """Agreement between the two reviewers sharing the most
        doubly-reviewed claims (None when no claim has two reviews).

        Each reviewer's verdicts over the co-reviewed claims are
        projected to per-report annotation documents and scored with
        :func:`repro.annotation.agreement.agreement` (span F1, token
        kappa, relation F1); the verdict strings themselves are scored
        with Cohen's kappa.
        """
        co_reviewed: dict[tuple[str, str], list[str]] = {}
        for claim_id in self._claims:
            decisions = self._decisions.get(claim_id, [])
            names = sorted({d.reviewer for d in decisions})
            for i, a in enumerate(names):
                for b in names[i + 1 :]:
                    co_reviewed.setdefault((a, b), []).append(claim_id)
        if not co_reviewed:
            return None
        pair = max(co_reviewed, key=lambda p: (len(co_reviewed[p]), p))
        reviewer_a, reviewer_b = pair
        shared = set(co_reviewed[pair])

        doc_ids = sorted(
            {self._claims[claim_id].doc_id for claim_id in shared}
        )
        docs_a = [
            self._reviewed_document(doc_id, reviewer_a, shared)
            for doc_id in doc_ids
        ]
        docs_b = [
            self._reviewed_document(doc_id, reviewer_b, shared)
            for doc_id in doc_ids
        ]
        verdicts_a = []
        verdicts_b = []
        for claim_id in co_reviewed[pair]:
            by_name = {
                d.reviewer: d.verdict for d in self._decisions[claim_id]
            }
            verdicts_a.append(by_name[reviewer_a])
            verdicts_b.append(by_name[reviewer_b])
        return PairAgreement(
            reviewer_a=reviewer_a,
            reviewer_b=reviewer_b,
            n_claims=len(shared),
            verdict_kappa=cohens_kappa(verdicts_a, verdicts_b),
            report=agreement(docs_a, docs_b),
        )

    # -- durability (repro.durability.Durable protocol) --------------------

    def durable_apply(self, op: dict) -> None:
        """Replay one journaled ``review`` op (journal suspended by the
        manager).  A double-applied ``enqueue`` raises — replaying the
        same commit twice is a WAL bug, not a recovery path."""
        kind = op.get("op")
        if kind == "enqueue":
            self._apply_enqueue(self._document_of_payload(op))
        elif kind == "decide":
            self._apply_decision(Decision.from_json(op["decision"]))
        elif kind == "drop":
            self._apply_drop(op["doc"])
        else:
            raise ReviewError(f"unknown review journal op: {kind!r}")

    def durable_snapshot(self) -> dict:
        return {
            "docs": [
                self._document_payload(document)
                for document in self._documents.values()
            ],
            "decisions": [
                [claim_id, [d.to_json() for d in decisions]]
                for claim_id, decisions in self._decisions.items()
                if decisions
            ],
        }

    def durable_restore(self, state: dict) -> None:
        self._documents.clear()
        self._claims.clear()
        self._decisions.clear()
        for payload in state.get("docs", ()):
            self._apply_enqueue(self._document_of_payload(payload))
        for claim_id, decisions in state.get("decisions", ()):
            self._decisions[str(claim_id)] = [
                Decision.from_json(d) for d in decisions
            ]

    # -- internals ---------------------------------------------------------

    @staticmethod
    def _document_payload(document: AnnotationDocument) -> dict:
        """A report as the journal and the snapshot carry it: its text
        and its BRAT standoff, once."""
        return {
            "doc": document.doc_id,
            "text": document.text,
            "ann": serialize_ann(document),
        }

    @staticmethod
    def _document_of_payload(payload: dict) -> AnnotationDocument:
        try:
            return parse_ann_unverified(
                payload["doc"], payload["text"], payload["ann"]
            )
        except (KeyError, TypeError, AttributeError, AnnotationError) as exc:
            raise ReviewError(f"malformed document payload: {exc}") from exc

    @staticmethod
    def _claims_of_annotations(annotations: AnnotationDocument) -> list[Claim]:
        doc_id = annotations.doc_id
        claims = []
        for tb in annotations.spans_sorted():
            claims.append(
                Claim(
                    claim_id=claim_id_for(doc_id, tb.ann_id),
                    doc_id=doc_id,
                    span_id=tb.ann_id,
                    kind=MENTION,
                    label=tb.label,
                    value=tb.text,
                    start=tb.start,
                    end=tb.end,
                    negated=annotations.is_negated(tb.ann_id),
                )
            )
        for ann_id in sorted(annotations.relations):
            rel = annotations.relations[ann_id]
            source = annotations.textbounds.get(rel.source)
            target = annotations.textbounds.get(rel.target)
            if source is None or target is None:
                continue
            claims.append(
                Claim(
                    claim_id=claim_id_for(doc_id, ann_id),
                    doc_id=doc_id,
                    span_id=ann_id,
                    kind=RELATION,
                    label=rel.label,
                    value=f"{source.text} -{rel.label}-> {target.text}",
                    start=min(source.start, target.start),
                    end=max(source.end, target.end),
                    source=rel.source,
                    target=rel.target,
                )
            )
        return claims

    def _apply_enqueue(self, document: AnnotationDocument) -> list[Claim]:
        """Enroll ``document`` under its ``doc_id`` and derive its
        claims — the one path enrollment, replay and restore share."""
        doc_id = document.doc_id
        if doc_id in self._documents:
            raise ReviewError(f"report {doc_id!r} is already enrolled")
        claims = self._claims_of_annotations(document)
        new: dict[str, Claim] = {}
        for claim in claims:
            if claim.claim_id in self._claims or claim.claim_id in new:
                raise ReviewError(f"duplicate claim {claim.claim_id!r}")
            new[claim.claim_id] = claim
        self._documents[doc_id] = document
        self._claims.update(new)
        return claims

    def _apply_decision(self, decision: Decision) -> None:
        if decision.claim_id not in self._claims:
            raise ReviewError(f"unknown claim {decision.claim_id!r}")
        decisions = self._decisions.setdefault(decision.claim_id, [])
        decisions[:] = [
            d for d in decisions if d.reviewer != decision.reviewer
        ]
        decisions.append(decision)

    def _apply_drop(self, doc_id: str) -> int:
        if doc_id not in self._documents:
            return 0
        del self._documents[doc_id]
        victims = [
            claim_id
            for claim_id, claim in self._claims.items()
            if claim.doc_id == doc_id
        ]
        for claim_id in victims:
            del self._claims[claim_id]
            self._decisions.pop(claim_id, None)
        return len(victims)

    def _validate_correction(self, claim: Claim, decision: Decision) -> None:
        if decision.verdict != "edit":
            return
        if claim.kind == RELATION and decision.start is not None:
            raise ReviewError(
                f"{claim.claim_id}: relation claims take label "
                "corrections only, not offsets"
            )
        if decision.start is not None:
            text = self._documents[claim.doc_id].text
            if decision.end > len(text):
                raise ReviewError(
                    f"{claim.claim_id}: corrected span end {decision.end} "
                    f"beyond report length {len(text)}"
                )

    def _decision_for(
        self, claim_id: str, reviewer: str | None
    ) -> Decision | None:
        decisions = self._decisions.get(claim_id)
        if not decisions:
            return None
        if reviewer is None:
            return decisions[-1]
        for decision in decisions:
            if decision.reviewer == reviewer:
                return decision
        return None

    def _reviewed_document(
        self,
        doc_id: str,
        reviewer: str | None,
        allowed: set[str] | None = None,
    ) -> AnnotationDocument:
        """Mentions, then relations, as amended by ``reviewer``'s
        verdicts (``None`` = each claim's latest decision), over only
        the claims in ``allowed`` when given (the co-reviewed set, for
        agreement scoring)."""
        doc = AnnotationDocument(doc_id=doc_id, text=self._documents[doc_id].text)
        verdicts = []
        for claim in self.claims_of(doc_id):
            if allowed is not None and claim.claim_id not in allowed:
                continue
            decision = self._decision_for(claim.claim_id, reviewer)
            if decision is not None and decision.verdict != "reject":
                verdicts.append((claim, decision))
        for claim, decision in verdicts:
            if claim.kind != MENTION:
                continue
            label = claim.label
            start, end = claim.start, claim.end
            if decision.verdict == "edit":
                label = decision.label or label
                if decision.start is not None:
                    start, end = decision.start, decision.end
            tb = doc.add_textbound(label, start, end, ann_id=claim.span_id)
            if claim.negated:
                doc.add_attribute("Negated", tb.ann_id)
        for claim, decision in verdicts:
            if claim.kind != RELATION:
                continue
            if (
                claim.source not in doc.textbounds
                or claim.target not in doc.textbounds
            ):
                continue  # an endpoint was rejected or re-spanned away
            label = claim.label
            if decision.verdict == "edit" and decision.label:
                label = decision.label
            doc.add_relation(
                label, claim.source, claim.target, ann_id=claim.span_id
            )
        return doc

    def _encoded(self, op: dict) -> dict:
        """``op``, once the WAL is known to hold it: journaled, it is
        encoded here, before the caller touches memory, so an op that
        cannot be encoded raises with nothing changed."""
        if self.journal is not None:
            encode_record(op)
        return op

    def _log(self, op: dict) -> None:
        if self.journal is not None:
            self.journal.append(op)
