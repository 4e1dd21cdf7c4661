"""HTML evidence view for the review queue.

One self-contained XHTML page per enrolled report: the narrative with
the extracted spans highlighted (reusing
:func:`repro.viz.report_html.marked_narrative`), where every mention
mark carries an ``id`` anchor, and a claims table whose rows link to
those anchors — so a reviewer reading claim ``doc:T3`` can jump
straight to the evidence span that produced it.  Each table row has
its own ``decision-…`` anchor and shows the claim's current verdict,
giving the decision POST route a stable fragment to send reviewers
back to.
"""

from __future__ import annotations

from xml.sax.saxutils import escape, quoteattr

from repro.annotation.model import AnnotationDocument
from repro.exceptions import ReviewError
from repro.review.model import MENTION, Claim
from repro.review.queue import ReviewQueue
from repro.viz.report_html import _CSS, marked_narrative

_REVIEW_CSS = _CSS + """
.claims td.value { font-style: italic; }
.claims td.verdict-accept { color: #2a7a2a; }
.claims td.verdict-edit { color: #a06000; }
.claims td.verdict-reject { color: #a02020; }
.claims td.verdict-queued { color: #555; }
"""


def evidence_anchor(span_id: str) -> str:
    """The narrative-mark anchor for a claim's evidence span."""
    return f"claim-{span_id}"


def decision_anchor(span_id: str) -> str:
    """The claims-table anchor where the claim's verdict is shown."""
    return f"decision-{span_id}"


def _claim_row(queue: ReviewQueue, claim: Claim) -> str:
    decision = queue.effective_decision(claim.claim_id)
    if decision is None:
        verdict, who = "queued", ""
    else:
        verdict, who = decision.verdict, decision.reviewer
    evidence = (
        f'<a href="#{escape(evidence_anchor(claim.span_id))}">'
        f"[{claim.start}, {claim.end})</a>"
        if claim.kind == MENTION
        else f"[{claim.start}, {claim.end})"
    )
    return (
        f"<tr id={quoteattr(decision_anchor(claim.span_id))}>"
        f"<td>{escape(claim.claim_id)}</td>"
        f"<td>{escape(claim.kind)}</td>"
        f"<td>{escape(claim.label)}</td>"
        f'<td class="value">{escape(claim.value)}</td>'
        f"<td>{evidence}</td>"
        f'<td class="verdict-{escape(verdict)}">{escape(verdict)}'
        f"{(' · ' + escape(who)) if who else ''}</td>"
        "</tr>"
    )


def render_review_html(queue: ReviewQueue, doc_id: str) -> str:
    """Render one enrolled report's claims as an XHTML evidence page.

    Raises:
        ReviewError: the report is not enrolled in the queue.
    """
    enrolled = queue.annotations(doc_id)
    if enrolled is None:
        raise ReviewError(f"report {doc_id!r} is not enrolled")
    claims = queue.claims_of(doc_id)

    # Rebuild the *extracted* annotations (pre-correction) so the
    # reviewer judges claims against the evidence as claimed.
    doc = AnnotationDocument(doc_id=doc_id, text=enrolled.text)
    anchors: dict[str, str] = {}
    for claim in claims:
        if claim.kind != MENTION:
            continue
        tb = doc.add_textbound(
            claim.label, claim.start, claim.end, ann_id=claim.span_id
        )
        if claim.negated:
            doc.add_attribute("Negated", tb.ann_id)
        anchors[claim.span_id] = evidence_anchor(claim.span_id)

    stats = queue.stats()
    rows = "".join(_claim_row(queue, claim) for claim in claims)
    return (
        '<?xml version="1.0" encoding="utf-8"?>\n'
        '<html xmlns="http://www.w3.org/1999/xhtml"><head>'
        f"<title>Review: {escape(doc_id)}</title>"
        f"<style>{_REVIEW_CSS}</style></head><body>"
        f"<h1>Review: {escape(doc_id)}</h1>"
        f'<div class="meta">{len(claims)} claims · '
        f"{len(queue.queued(doc_id))} queued · "
        f"queue depth {stats['queue_depth']} overall</div>"
        f"<p>{marked_narrative(doc, anchors)}</p>"
        '<table class="claims">'
        "<tr><th>claim</th><th>kind</th><th>label</th>"
        "<th>value</th><th>evidence</th><th>verdict</th></tr>"
        + rows
        + "</table></body></html>"
    )
