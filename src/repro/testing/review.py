"""Review-queue crash fuzzing: seeded decision schedules vs. an oracle.

One generated case is a short enroll/decide/drop schedule over a
:class:`~repro.review.queue.ReviewQueue`, run through
:func:`repro.testing.crash.check_crash_contract` — this module is the
spec (store, action vocabulary, canonical state).  What the contract
means for the review queue:

* **No lost acked decision** — the recovered state covers at least
  every action whose commit LSN was acknowledged before the fault.
* **No double-commit** — recovery replays each WAL record exactly
  once: a re-applied ``enqueue`` raises inside
  :meth:`ReviewQueue.durable_apply` (surfacing as a recovery failure),
  and a re-applied ``decide`` would break the whole-prefix state
  equality, since decision lists are part of the canonical state.
* **Prefix consistency** — never a partial enroll, never a decision
  without its claim.  The journal carries a report as text plus BRAT
  standoff and replay re-derives its claims; the canonical state holds
  both the standoff and the claims, so a replay that derives anything
  enrollment did not is a prefix mismatch.
* **Partition exactness** (this spec's own assertion) — after finishing
  the schedule on the recovered queue, the queued/decided claim
  partition is bit-identical to the never-crashed oracle's.
"""

from __future__ import annotations

import json
from random import Random

from repro.annotation.brat import serialize_ann
from repro.annotation.model import AnnotationDocument
from repro.review.model import VERDICTS, claim_id_for
from repro.review.queue import ReviewQueue
from repro.testing.crash import (
    check_crash_contract,
    valid_relations,
    valid_schedule,
)
from repro.testing.generators import (
    gen_crash_schedule,
    gen_relations,
    gen_text,
)

_LABELS = ("Symptom", "Disease", "Medication", "Procedure", "Test")
_RELATION_LABELS = ("BEFORE", "OVERLAP", "TREATS")
_REVIEWERS = ("alice", "bob", "carol")


# -- generation --------------------------------------------------------------


def _gen_document(rng: Random, doc_id: str) -> dict:
    """One report: text plus non-overlapping extracted spans."""
    words = gen_text(rng, 14, 6).split()
    text = " ".join(words)
    spans = []
    cursor = 0
    for word in words:
        start = text.index(word, cursor)
        cursor = start + len(word)
        if len(spans) < 5 and rng.random() < 0.4:
            spans.append(
                [
                    rng.choice(_LABELS),
                    start,
                    cursor,
                    rng.random() < 0.15,  # negated
                ]
            )
    relations = gen_relations(rng, len(spans), _RELATION_LABELS)
    return {
        "act": "enroll",
        "id": doc_id,
        "text": text,
        "spans": spans,
        "relations": relations,
    }


def _claims_of(action: dict) -> list[tuple[str, str]]:
    """(claim id, kind) of every claim an enroll action creates."""
    return [
        (claim_id_for(action["id"], f"T{k + 1}"), "mention")
        for k in range(len(action["spans"]))
    ] + [
        (claim_id_for(action["id"], f"R{k + 1}"), "relation")
        for k in range(len(action["relations"]))
    ]


def _gen_decision(rng: Random, action: dict, claim: dict) -> dict:
    """One semantically valid decide action against a live claim."""
    verdict = rng.choice(VERDICTS)
    decision = {
        "act": "decide",
        "claim": claim["claim_id"],
        "reviewer": rng.choice(_REVIEWERS),
        "verdict": verdict,
        "label": None,
        "start": None,
        "end": None,
    }
    if verdict == "edit":
        correct_label = claim["kind"] == "relation" or rng.random() < 0.6
        if correct_label:
            decision["label"] = rng.choice(
                _RELATION_LABELS if claim["kind"] == "relation" else _LABELS
            )
        if claim["kind"] == "mention" and (
            not correct_label or rng.random() < 0.3
        ):
            length = len(action["text"])
            start = rng.randrange(length)
            decision["start"] = start
            decision["end"] = rng.randint(start + 1, length)
    return decision


def gen_review_case(rng: Random) -> dict:
    """An enroll/decide/drop schedule plus one planned fault.

    Decides only ever target claims of currently-enrolled reports, so
    the schedule is semantically valid — the fuzzer probes durability,
    not input validation (the model layer's own tests cover that).
    """
    actions: list[dict] = []
    live: dict[str, dict] = {}  # doc_id -> its enroll action
    live_claims: list[dict] = []  # {"claim_id", "kind", "doc"}
    n_docs = 0
    for _ in range(rng.randint(2, 12)):
        roll = rng.random()
        if live_claims and roll < 0.55:
            claim = rng.choice(live_claims)
            actions.append(
                _gen_decision(rng, live[claim["doc"]], claim)
            )
        elif live and roll < 0.65:
            doc_id = rng.choice(sorted(live))
            del live[doc_id]
            live_claims = [
                claim for claim in live_claims if claim["doc"] != doc_id
            ]
            actions.append({"act": "drop", "id": doc_id})
        else:
            doc_id = f"doc-{n_docs}"
            n_docs += 1
            action = _gen_document(rng, doc_id)
            live[doc_id] = action
            live_claims.extend(
                {"claim_id": claim_id, "kind": kind, "doc": doc_id}
                for claim_id, kind in _claims_of(action)
            )
            actions.append(action)
    return gen_crash_schedule(rng, actions)


# -- checking ----------------------------------------------------------------


def apply_review_action(queue: ReviewQueue, action: dict) -> None:
    """Apply one schedule action to a queue (memory only)."""
    if action["act"] == "enroll":
        doc = AnnotationDocument(doc_id=action["id"], text=action["text"])
        for label, start, end, negated in action["spans"]:
            tb = doc.add_textbound(label, start, end)
            if negated:
                doc.add_attribute("Negated", tb.ann_id)
        for src, dst, label in action["relations"]:
            doc.add_relation(label, f"T{src + 1}", f"T{dst + 1}")
        queue.enqueue_document(action["id"], doc)
    elif action["act"] == "decide":
        queue.decide(
            action["claim"],
            reviewer=action["reviewer"],
            verdict=action["verdict"],
            label=action["label"],
            start=action["start"],
            end=action["end"],
        )
    else:  # drop
        queue.drop_document(action["id"])


def canonical_review_state(queue: ReviewQueue) -> str:
    """Identity-free canonical rendering of the full review state:
    the annotation documents the queue owns, the claims derived from
    them, the decisions, and the queued/decided partition."""
    documents = [queue.annotations(doc_id) for doc_id in queue.documents()]
    payload = {
        "docs": sorted(
            [document.doc_id, document.text, serialize_ann(document)]
            for document in documents
        ),
        "claims": sorted(
            json.dumps(claim.to_json(), sort_keys=True)
            for doc_id in queue.documents()
            for claim in queue.claims_of(doc_id)
        ),
        "decisions": sorted(
            [
                claim.claim_id,
                [
                    json.dumps(d.to_json(), sort_keys=True)
                    for d in queue.decisions_of(claim.claim_id)
                ],
            ]
            for doc_id in queue.documents()
            for claim in queue.claims_of(doc_id)
        ),
        "partition": review_partition(queue),
    }
    return json.dumps(payload, sort_keys=True)


def review_partition(queue: ReviewQueue) -> dict:
    """The queued/decided claim-id partition."""
    return {
        "queued": sorted(claim.claim_id for claim in queue.queued()),
        "decided": sorted(claim.claim_id for claim in queue.decided()),
    }


def _valid_actions(actions: list) -> bool:
    live: dict[str, dict] = {}
    claims: dict[str, str] = {}  # claim_id -> kind
    for action in actions:
        if not isinstance(action, dict):
            return False
        kind = action.get("act")
        if kind == "enroll":
            doc_id = action.get("id")
            text = action.get("text")
            if not isinstance(doc_id, str) or doc_id in live:
                return False
            if not isinstance(text, str):
                return False
            spans = action.get("spans")
            if not isinstance(spans, list):
                return False
            previous_end = -1
            for span in spans:
                if not (
                    isinstance(span, list)
                    and len(span) == 4
                    and isinstance(span[0], str)
                    and isinstance(span[1], int)
                    and isinstance(span[2], int)
                    and isinstance(span[3], bool)
                    and previous_end <= span[1] < span[2] <= len(text)
                ):
                    return False
                previous_end = span[2]
            relations = action.get("relations")
            if not valid_relations(relations, len(spans)):
                return False
            live[doc_id] = action
            claims.update(_claims_of(action))
        elif kind == "decide":
            claim_id = action.get("claim")
            if claim_id not in claims:
                return False
            doc_id = claim_id.split(":", 1)[0]
            if doc_id not in live:
                return False
            if action.get("verdict") not in VERDICTS:
                return False
            reviewer = action.get("reviewer")
            if not isinstance(reviewer, str) or not reviewer:
                return False
            label = action.get("label")
            start = action.get("start")
            end = action.get("end")
            if action["verdict"] != "edit":
                if label is not None or start is not None or end is not None:
                    return False
            else:
                if label is None and start is None:
                    return False
                if label is not None and not isinstance(label, str):
                    return False
                if (start is None) != (end is None):
                    return False
                if start is not None:
                    if claims[claim_id] != "mention":
                        return False
                    text = live[doc_id]["text"]
                    if not (
                        isinstance(start, int)
                        and isinstance(end, int)
                        and 0 <= start < end <= len(text)
                    ):
                        return False
        elif kind == "drop":
            doc_id = action.get("id")
            if doc_id not in live:
                return False
            del live[doc_id]
            claims = {
                claim_id: claim_kind
                for claim_id, claim_kind in claims.items()
                if claim_id.split(":", 1)[0] != doc_id
            }
        else:
            return False
    return True


def _valid_case(case: dict) -> bool:
    """Structural validation; shrunk cases may violate any of this."""
    return valid_schedule(case, _valid_actions)


def _partition_exactness(stores: dict, oracle_stores: dict) -> str | None:
    got = review_partition(stores["review"])
    want = review_partition(oracle_stores["review"])
    if got != want:
        return (
            f"queued/decided partition diverged after recovery: "
            f"{got} vs oracle {want}"
        )
    return None


def check_review_case(case: dict) -> str | None:
    """The crash contract over the review queue."""
    return check_crash_contract(
        case,
        valid_actions=_valid_actions,
        fresh_stores=lambda: {"review": ReviewQueue()},
        apply_action=lambda stores, action: apply_review_action(
            stores["review"], action
        ),
        canonical=lambda stores: canonical_review_state(stores["review"]),
        check_final=_partition_exactness,
    )
