"""Tests for the evidence-grounded review service (`repro.review`)."""

import json
from xml.etree import ElementTree

import pytest
from hypothesis import given, settings, strategies as st

from repro.annotation.brat import (
    parse_ann,
    parse_ann_unverified,
    serialize_ann,
)
from repro.annotation.model import AnnotationDocument, RelationAnn
from repro.api.app import CreateApplication
from repro.docstore.store import DocumentStore
from repro.durability import DurabilityManager, MemFS
from repro.exceptions import ReviewError
from repro.ir.indexer import CreateIrIndexer
from repro.ir.searcher import CreateIrSearcher
from repro.review import (
    Claim,
    Decision,
    ReviewQueue,
    claim_id_for,
    render_review_html,
)


def _doc(doc_id, text, spans, relations=(), negated=()):
    """Build an annotation document from (label, word) span specs."""
    doc = AnnotationDocument(doc_id=doc_id, text=text)
    ids = []
    for label, word in spans:
        start = text.index(word)
        tb = doc.add_textbound(label, start, start + len(word))
        ids.append(tb.ann_id)
        if word in negated:
            doc.add_attribute("Negated", tb.ann_id)
    for src, dst, label in relations:
        doc.add_relation(label, ids[src], ids[dst])
    return doc


@pytest.fixture()
def queue():
    queue = ReviewQueue()
    doc = _doc(
        "r1",
        "patient denied fever but reported chest pain after admission",
        [("Symptom", "fever"), ("Symptom", "chest pain")],
        relations=[(0, 1, "BEFORE")],
        negated=("fever",),
    )
    queue.enqueue_document("r1", doc)
    return queue


class TestClaimModel:
    def test_claim_id_format(self):
        assert claim_id_for("doc-1", "T3") == "doc-1:T3"

    def test_rejects_unknown_kind(self):
        with pytest.raises(ReviewError):
            Claim("d:T1", "d", "T1", "blob", "Symptom", "x", 0, 1)

    def test_rejects_inverted_span(self):
        with pytest.raises(ReviewError):
            Claim("d:T1", "d", "T1", "mention", "Symptom", "x", 5, 5)

    def test_json_roundtrip(self, queue):
        # A claim's journaled form is its report's BRAT standoff, not a
        # per-claim object: every claim (negated mention and relation
        # included) comes back equal from the JSON the WAL would carry.
        queue.journal = []
        queue.drop_document("r1")
        claims = queue.enqueue_document(
            "r1",
            _doc(
                "r1",
                "a then b",
                [("Symptom", "a"), ("Symptom", "b")],
                relations=[(0, 1, "BEFORE")],
                negated=("a",),
            ),
        )
        assert [c.kind for c in claims] == ["mention", "mention", "relation"]
        replayed = ReviewQueue()
        for op in queue.journal:
            replayed.durable_apply(json.loads(op))
        assert replayed.claims_of("r1") == claims
        assert replayed.claim("r1:R1").to_json() == {
            "claim_id": "r1:R1",
            "doc_id": "r1",
            "span_id": "R1",
            "kind": "relation",
            "label": "BEFORE",
            "value": "a -BEFORE-> b",
            "start": 0,
            "end": 8,
            "negated": False,
            "source": "T1",
            "target": "T2",
        }

    def test_malformed_payload(self):
        # A malformed enqueue op is refused whole: nothing is enrolled.
        queue = ReviewQueue()
        for payload in (
            {"doc": "x"},  # no text, no standoff
            {"doc": "x", "text": "fever", "ann": None},
            {"doc": "x", "text": "fever", "ann": "T1\tSymptom 0 9\tfever\n"},
            {"doc": "x", "text": "fever", "ann": "T1\tSymptom 0 5\tcough\n"},
            {"doc": "x", "text": "fever", "ann": "Z1\twhat\n"},
        ):
            with pytest.raises(ReviewError):
                queue.durable_apply({"op": "enqueue", **payload})
            assert queue.documents() == []
            assert queue.stats()["claims"] == 0

    def test_decision_verdict_validation(self):
        with pytest.raises(ReviewError):
            Decision("d:T1", "alice", "maybe")

    def test_decision_requires_reviewer(self):
        with pytest.raises(ReviewError):
            Decision("d:T1", "", "accept")

    def test_accept_carries_no_corrections(self):
        with pytest.raises(ReviewError):
            Decision("d:T1", "alice", "accept", label="Symptom")

    def test_edit_requires_a_correction(self):
        with pytest.raises(ReviewError):
            Decision("d:T1", "alice", "edit")

    def test_offsets_come_in_pairs(self):
        with pytest.raises(ReviewError):
            Decision("d:T1", "alice", "edit", start=3)

    def test_decision_json_roundtrip(self):
        decision = Decision("d:T1", "alice", "edit", start=3, end=9)
        assert Decision.from_json(decision.to_json()) == decision


class TestReviewQueue:
    def test_enqueue_produces_claims(self, queue):
        claims = queue.claims_of("r1")
        assert [c.claim_id for c in claims] == ["r1:T1", "r1:T2", "r1:R1"]
        mention = claims[0]
        assert mention.kind == "mention"
        assert mention.value == "fever"
        assert mention.negated
        relation = claims[2]
        assert relation.kind == "relation"
        assert relation.source == "T1" and relation.target == "T2"
        # Envelope of both endpoint spans.
        assert relation.start == claims[0].start
        assert relation.end == claims[1].end

    def test_duplicate_enroll_rejected(self, queue):
        with pytest.raises(ReviewError):
            queue.enqueue_document(
                "r1", AnnotationDocument(doc_id="r1", text="x y")
            )

    def test_decide_moves_claim_out_of_queue(self, queue):
        assert queue.is_queued("r1:T1")
        queue.decide("r1:T1", "alice", "accept")
        assert not queue.is_queued("r1:T1")
        assert [c.claim_id for c in queue.queued()] == ["r1:T2", "r1:R1"]
        assert [c.claim_id for c in queue.decided()] == ["r1:T1"]

    def test_unknown_claim(self, queue):
        with pytest.raises(ReviewError):
            queue.decide("r1:T99", "alice", "accept")

    def test_redecide_replaces_same_reviewer(self, queue):
        queue.decide("r1:T1", "alice", "accept")
        queue.decide("r1:T1", "alice", "reject")
        decisions = queue.decisions_of("r1:T1")
        assert len(decisions) == 1
        assert decisions[0].verdict == "reject"

    def test_second_reviewer_appends(self, queue):
        queue.decide("r1:T1", "alice", "accept")
        queue.decide("r1:T1", "bob", "reject")
        assert len(queue.decisions_of("r1:T1")) == 2
        assert queue.effective_decision("r1:T1").reviewer == "bob"

    def test_edit_offsets_bounded_by_text(self, queue):
        with pytest.raises(ReviewError):
            queue.decide("r1:T1", "alice", "edit", start=0, end=10_000)

    def test_relation_edit_is_label_only(self, queue):
        with pytest.raises(ReviewError):
            queue.decide("r1:R1", "alice", "edit", start=0, end=5)
        decision = queue.decide("r1:R1", "alice", "edit", label="OVERLAP")
        assert decision.label == "OVERLAP"

    def test_drop_removes_claims_and_decisions(self, queue):
        queue.decide("r1:T1", "alice", "accept")
        assert queue.drop_document("r1") == 3
        assert queue.claims_of("r1") == []
        assert queue.decisions_of("r1:T1") == []
        assert queue.drop_document("r1") == 0

    def test_stats(self, queue):
        queue.decide("r1:T1", "alice", "accept")
        queue.decide("r1:T1", "bob", "reject")
        queue.decide("r1:T2", "alice", "edit", label="Disease")
        stats = queue.stats()
        assert stats["documents"] == 1
        assert stats["claims"] == 3
        assert stats["queue_depth"] == 1
        assert stats["decided"] == 2
        assert stats["double_reviewed"] == 1
        assert stats["reviewers"] == {"alice": 2, "bob": 1}
        # Effective (latest) verdicts: T1 reject, T2 edit.
        assert stats["by_verdict"] == {"accept": 0, "edit": 1, "reject": 1}


class TestCorrections:
    def test_corrected_document_semantics(self, queue):
        queue.decide("r1:T1", "alice", "accept")
        queue.decide("r1:T2", "alice", "edit", label="Finding")
        queue.decide("r1:R1", "alice", "accept")
        doc = queue.corrected_document("r1")
        labels = {tb.ann_id: tb.label for tb in doc.spans_sorted()}
        assert labels == {"T1": "Symptom", "T2": "Finding"}
        assert doc.is_negated("T1")  # negation flag survives accept
        assert len(doc.relations) == 1

    def test_rejected_claims_drop_out(self, queue):
        queue.decide("r1:T1", "alice", "reject")
        queue.decide("r1:T2", "alice", "accept")
        queue.decide("r1:R1", "alice", "accept")
        doc = queue.corrected_document("r1")
        assert [tb.ann_id for tb in doc.spans_sorted()] == ["T2"]
        # The relation lost an endpoint, so it drops too.
        assert doc.relations == {}

    def test_queued_claims_are_not_gold(self, queue):
        queue.decide("r1:T1", "alice", "accept")
        doc = queue.corrected_document("r1")
        assert [tb.ann_id for tb in doc.spans_sorted()] == ["T1"]

    def test_unenrolled_document(self, queue):
        with pytest.raises(ReviewError):
            queue.corrected_document("zzz")

    def test_accepted_corrections_bio_output(self, queue):
        queue.decide("r1:T2", "alice", "edit", label="Finding")
        examples = queue.accepted_corrections()
        assert len(examples) == 1
        example = examples[0]
        assert example.doc_id == "r1"
        assert len(example.tokens) == len(example.labels)
        assert "B-Finding" in example.labels
        assert "I-Finding" in example.labels  # "chest pain" spans 2 tokens

    def test_only_verified_documents_export(self, queue):
        assert queue.accepted_corrections() == []
        queue.decide("r1:T1", "alice", "reject")
        assert queue.accepted_corrections() == []


class TestAgreement:
    def test_no_double_reviews(self, queue):
        queue.decide("r1:T1", "alice", "accept")
        assert queue.pair_agreement() is None

    def test_pair_agreement(self, queue):
        for claim_id in ("r1:T1", "r1:T2"):
            queue.decide(claim_id, "alice", "accept")
        queue.decide("r1:T1", "bob", "accept")
        queue.decide("r1:T2", "bob", "reject")
        pair = queue.pair_agreement()
        assert (pair.reviewer_a, pair.reviewer_b) == ("alice", "bob")
        assert pair.n_claims == 2
        assert pair.report.n_documents == 1
        # They agree on T1, disagree on T2.
        assert 0.0 < pair.report.span_f1.f1 < 1.0
        assert pair.verdict_kappa < 1.0

    def test_perfect_agreement(self, queue):
        for reviewer in ("alice", "bob"):
            for claim_id in ("r1:T1", "r1:T2", "r1:R1"):
                queue.decide(claim_id, reviewer, "accept")
        pair = queue.pair_agreement()
        assert pair.verdict_kappa == 1.0
        assert pair.report.span_f1.f1 == 1.0
        assert pair.report.relation_f1.f1 == 1.0


_WORDS = st.sampled_from(
    ["fever", "Sjögren", "chest", "pain", "no", "β-blocker", "x", "2.5mg"]
)
# What separates two words of a report: a SimPDF block keeps its line
# breaks, and str.splitlines() would cut at every one of these but the
# space and the tab.
_GAPS = st.sampled_from([" ", "\n", "\r\n", "\r", "\t", "\x0c", "\u2028"])
_SPAN_LABELS = st.sampled_from(["Sign_symptom", "Medication", "Finding"])
_ID_TAILS = st.sampled_from(["7", "07", "40", "x", "foo", "9a", "_1"])


@st.composite
def _standoff_documents(draw):
    """Annotation documents over the shapes enrollment accepts:
    zero-span documents, negated spans, spans that cross a line break,
    spans over the same offsets with ids out of order, relations (some
    with an endpoint that is not in the document), and ids of the
    curator's choosing as ``PUT /reports/{id}/ann`` takes them."""
    words = draw(st.lists(_WORDS, min_size=1, max_size=8))
    text, starts = "", []
    for word in words:
        if starts:
            text += draw(_GAPS)
        starts.append(len(text))
        text += word
    doc = AnnotationDocument(doc_id="r", text=text)

    def ann_id(prefix, pool):
        if draw(st.booleans()):
            return None  # the model's own numbering
        chosen = prefix + draw(_ID_TAILS)
        return None if chosen in pool else chosen

    for first in draw(
        st.lists(st.integers(0, len(words) - 1), max_size=5)
    ):
        last = draw(st.integers(first, len(words) - 1))
        tb = doc.add_textbound(
            draw(_SPAN_LABELS),
            starts[first],
            starts[last] + len(words[last]),
            ann_id=ann_id("T", doc.textbounds),
        )
        if draw(st.integers(0, 3)) == 0:
            doc.add_attribute(
                "Negated", tb.ann_id, ann_id=ann_id("A", doc.attributes)
            )
    span_ids = list(doc.textbounds)
    for _ in range(draw(st.integers(0, 4)) if len(span_ids) >= 2 else 0):
        source, target = draw(
            st.lists(
                st.sampled_from(span_ids), min_size=2, max_size=2, unique=True
            )
        )
        doc.add_relation(
            draw(st.sampled_from(["BEFORE", "OVERLAP"])),
            source,
            target,
            ann_id=ann_id("R", doc.relations),
        )
    if span_ids and draw(st.booleans()):
        # add_relation refuses this; an extractor that filtered a span
        # after relating it would produce it.
        doc.relations["R99"] = RelationAnn(
            "R99", "BEFORE", span_ids[0], "T_gone"
        )
    return doc


class TestStandoffRoundTrip:
    """What the journal relies on: text + ``.ann`` is the document."""

    @settings(max_examples=150, deadline=None)
    @given(_standoff_documents())
    def test_serialize_parse_is_identity_and_preserves_claims(self, doc):
        standoff = serialize_ann(doc)
        back = parse_ann_unverified("r", doc.text, standoff)
        assert serialize_ann(back) == standoff
        assert back == parse_ann_unverified("r", doc.text, serialize_ann(back))

        live = ReviewQueue()
        live.journal = []
        claims = live.enqueue_document("r", doc)
        assert len(claims) == len(doc.textbounds) + sum(
            rel.target in doc.textbounds for rel in doc.relations.values()
        )
        assert {c.span_id: c.negated for c in claims if c.kind == "mention"} == {
            ann_id: doc.is_negated(ann_id) for ann_id in doc.textbounds
        }
        replayed, restored = ReviewQueue(), ReviewQueue()
        for op in live.journal:
            replayed.durable_apply(json.loads(op))
        restored.durable_restore(json.loads(json.dumps(live.durable_snapshot())))
        for queue in (replayed, restored):
            assert queue.claims_of("r") == claims
            assert serialize_ann(queue.annotations("r")) == standoff
            assert queue.durable_snapshot() == live.durable_snapshot()
            # Same document, same dict order: nothing that walks the
            # document can tell a recovered queue from the live one.
            assert queue.annotations("r") == live.annotations("r")
            assert list(queue.annotations("r").textbounds) == list(
                live.annotations("r").textbounds
            )

        if "R99" not in doc.relations:
            # Referentially whole documents also pass the strict parser
            # PUT /ann uses, to the same document.
            assert parse_ann("r", doc.text, standoff) == back


class TestReviewDurability:
    def _enrolled_queue_manager(self, fs):
        queue = ReviewQueue()
        manager = DurabilityManager(fs)
        manager.attach("review", queue)
        doc = _doc(
            "r1",
            "patient denied fever but reported chest pain",
            [("Symptom", "fever"), ("Symptom", "chest pain")],
            negated=("fever",),
        )
        queue.enqueue_document("r1", doc)
        manager.commit()
        return queue, manager

    def test_decision_survives_replay(self):
        fs = MemFS()
        queue, manager = self._enrolled_queue_manager(fs)
        queue.decide("r1:T1", "alice", "edit", label="Finding")
        manager.commit()
        manager.flush()

        recovered = ReviewQueue()
        recovery = DurabilityManager(fs)
        recovery.attach("review", recovered)
        recovery.recover()
        assert recovered.effective_decision("r1:T1").label == "Finding"
        assert [c.claim_id for c in recovered.queued()] == ["r1:T2"]
        assert recovered.annotations("r1").text == queue.annotations("r1").text

    def test_zero_claim_drop_is_journaled(self):
        # Regression: dropping a report with no claims must still write
        # a WAL op, or replay resurrects the enrollment.
        fs = MemFS()
        queue = ReviewQueue()
        manager = DurabilityManager(fs)
        manager.attach("review", queue)
        queue.enqueue_document(
            "empty", AnnotationDocument(doc_id="empty", text="nothing here")
        )
        manager.commit()
        queue.drop_document("empty")
        manager.commit()
        manager.flush()

        recovered = ReviewQueue()
        recovery = DurabilityManager(fs)
        recovery.attach("review", recovered)
        recovery.recover()
        assert recovered.documents() == []

    def test_double_applied_enqueue_raises(self):
        queue = ReviewQueue()
        op = {
            "op": "enqueue",
            "doc": "r1",
            "text": "fever",
            "ann": "T1\tSymptom 0 5\tfever\n",
        }
        queue.durable_apply(dict(op))
        assert [c.claim_id for c in queue.queued()] == ["r1:T1"]
        with pytest.raises(ReviewError):
            queue.durable_apply(dict(op))
        assert [c.claim_id for c in queue.queued()] == ["r1:T1"]

    def test_snapshot_roundtrip(self, queue):
        queue.decide("r1:T1", "alice", "accept")
        state = queue.durable_snapshot()
        # Snapshots must be JSON-serializable for the WAL.
        state = json.loads(json.dumps(state))
        restored = ReviewQueue()
        restored.durable_restore(state)
        assert restored.durable_snapshot() == queue.durable_snapshot()
        # Claims are not in the snapshot; restore derives them again.
        assert "claims" not in state
        assert restored.claims_of("r1") == queue.claims_of("r1")
        assert restored.claim("r1:T1").negated
        assert restored.effective_decision("r1:T1").verdict == "accept"
        assert [c.claim_id for c in restored.queued()] == ["r1:T2", "r1:R1"]

    def test_journal_and_snapshot_carry_the_document_once(self):
        # The WAL enqueue op and the snapshot hold a report as text +
        # standoff; no per-claim rendering rides beside it.
        fs = MemFS()
        queue, manager = self._enrolled_queue_manager(fs)
        manager.flush()
        (record,) = manager.wal.replay().records
        (op,) = record["ops"]["review"]
        assert sorted(op) == ["ann", "doc", "op", "text"]
        assert op["op"] == "enqueue"
        wal = json.dumps(record)
        assert '"claims"' not in wal and '"claim_id"' not in wal
        assert wal.count("patient denied fever but reported") == 1
        (payload,) = queue.durable_snapshot()["docs"]
        assert {"op": "enqueue", **payload} == op
        assert payload == {
            "doc": "r1",
            "text": "patient denied fever but reported chest pain",
            "ann": (
                "T1\tSymptom 15 20\tfever\n"
                "T2\tSymptom 34 44\tchest pain\n"
                "A1\tNegated T1\n"
            ),
        }
        manager.snapshot()
        snapshot = fs.read_bytes("snapshot.json").decode("utf-8")
        assert '"claims"' not in snapshot and '"claim_id"' not in snapshot

    def test_annotations_survive_replay(self):
        fs = MemFS()
        queue, manager = self._enrolled_queue_manager(fs)
        manager.flush()
        recovered = ReviewQueue()
        recovery = DurabilityManager(fs)
        recovery.attach("review", recovered)
        recovery.recover()
        assert recovered.annotations("r1") == queue.annotations("r1")
        assert recovered.claims_of("r1") == queue.claims_of("r1")
        assert recovered.annotations("nope") is None

    def test_enrollment_is_keyed_by_report_id(self):
        # The extractor's own id for the document is not the report id.
        queue = ReviewQueue()
        doc = _doc("sub-7", "fever", [("Symptom", "fever")])
        queue.enqueue_document("report-1", doc)
        assert queue.annotations("report-1").doc_id == "report-1"
        assert queue.annotations("sub-7") is None
        assert doc.doc_id == "sub-7"  # the caller's object is untouched

    def test_span_across_a_line_break_survives_recovery(self):
        # A SimPDF block keeps its line breaks and a multi-token mention
        # may cross one; the T line carries the break as a space and
        # the offsets restore the surface.
        text = "reported chest\npain and\u2028fever"
        doc = AnnotationDocument(doc_id="r1", text=text)
        doc.add_textbound("Symptom", 9, 19)
        doc.add_textbound("Symptom", 20, 29)
        for snapshot in (False, True):
            fs = MemFS()
            queue = ReviewQueue()
            manager = DurabilityManager(fs)
            manager.attach("review", queue)
            claims = queue.enqueue_document("r1", doc)
            assert [c.value for c in claims] == ["chest\npain", "and\u2028fever"]
            manager.commit()
            manager.flush()
            if snapshot:
                manager.snapshot()
            recovered = ReviewQueue()
            recovery = DurabilityManager(fs)
            recovery.attach("review", recovered)
            recovery.recover()
            assert recovered.claims_of("r1") == claims
            assert recovered.annotations("r1") == queue.annotations("r1")
        assert serialize_ann(doc).splitlines()[0] == "T1\tSymptom 9 19\tchest pain"
        assert parse_ann("r1", text, serialize_ann(doc)) == doc

    def test_same_offset_spans_queue_in_one_order(self):
        # Two spans over the same offsets, listed T2 first as a PUT
        # body may: the live queue orders them as the recovered one.
        text = "fever"
        doc = parse_ann("r1", text, "T2\tA 0 5\tfever\nT1\tB 0 5\tfever\n")
        assert list(doc.textbounds) == ["T2", "T1"]
        live = ReviewQueue()
        live.journal = []
        claims = live.enqueue_document("r1", doc)
        assert [c.span_id for c in claims] == ["T1", "T2"]
        replayed = ReviewQueue()
        for op in live.journal:
            replayed.durable_apply(json.loads(op))
        assert replayed.claims_of("r1") == claims

    def test_enrolled_document_is_the_queues_own(self):
        queue = ReviewQueue()
        doc = _doc("r1", "fever and cough", [("Symptom", "fever")])
        queue.enqueue_document("r1", doc)
        before = queue.durable_snapshot()
        doc.add_textbound("Symptom", 10, 15)  # the caller's copy only
        assert queue.durable_snapshot() == before
        assert list(queue.annotations("r1").textbounds) == ["T1"]

    def test_annotations_standoff_cannot_carry_are_refused_unjournaled(self):
        queue = ReviewQueue()
        queue.journal = []
        doc = _doc("r1", "fever", [("Sign symptom", "fever")])
        with pytest.raises(ReviewError):
            queue.enqueue_document("r1", doc)
        noted = _doc("r2", "fever", [("Symptom", "fever")])
        noted.add_note("T1", "two\nlines")
        with pytest.raises(ReviewError):
            queue.enqueue_document("r2", noted)
        assert queue.journal == [] and queue.documents() == []
        queue.enqueue_document("r3", _doc("r3", "fever", [("Symptom", "fever")]))
        assert [json.loads(op)["doc"] for op in queue.journal] == ["r3"]

    def test_unknown_journal_op(self):
        with pytest.raises(ReviewError):
            ReviewQueue().durable_apply({"op": "mystery"})


@pytest.fixture()
def review_app():
    indexer = CreateIrIndexer()
    app = CreateApplication(
        store=DocumentStore(),
        indexer=indexer,
        searcher=CreateIrSearcher(indexer),
    )
    doc = _doc(
        "r1",
        "patient denied fever but reported chest pain after admission",
        [("Symptom", "fever"), ("Symptom", "chest pain")],
        relations=[(0, 1, "BEFORE")],
        negated=("fever",),
    )
    app.register_report(
        {"_id": "r1", "title": "case one", "text": doc.text}, doc
    )
    return app


class TestReviewApi:
    def test_register_enrolls_claims(self, review_app):
        response = review_app.handle("GET", "/review/queue")
        assert response.ok
        assert response.body["total"] == 3
        assert [c["claim_id"] for c in response.body["claims"]] == [
            "r1:T1", "r1:T2", "r1:R1",
        ]

    def test_queue_pagination(self, review_app):
        response = review_app.handle(
            "GET", "/review/queue", params={"skip": 1, "limit": 1}
        )
        assert response.ok
        assert response.body["total"] == 3
        assert [c["claim_id"] for c in response.body["claims"]] == ["r1:T2"]

    def test_claim_detail(self, review_app):
        response = review_app.handle("GET", "/review/claims/r1:T1")
        assert response.ok
        assert response.body["status"] == "queued"
        assert response.body["claim"]["value"] == "fever"
        assert review_app.handle("GET", "/review/claims/zzz").status == 404

    def test_decision_flow(self, review_app):
        response = review_app.handle(
            "POST",
            "/review/claims/r1:T1/decision",
            body={"reviewer": "alice", "verdict": "accept"},
        )
        assert response.status == 201
        assert response.body["queue_depth"] == 2
        detail = review_app.handle("GET", "/review/claims/r1:T1")
        assert detail.body["status"] == "decided"
        assert detail.body["decisions"][0]["reviewer"] == "alice"

    def test_decision_validation(self, review_app):
        bad = [
            ({"reviewer": "a", "verdict": "maybe"}, 400),
            ({"reviewer": "", "verdict": "accept"}, 400),
            ({"reviewer": "a", "verdict": "edit"}, 400),
            ({"reviewer": "a", "verdict": "edit", "start": "x", "end": 3}, 400),
            ("not a dict", 400),
        ]
        for body, status in bad:
            response = review_app.handle(
                "POST", "/review/claims/r1:T2/decision", body=body
            )
            assert response.status == status, body
            assert "error" in response.body
        missing = review_app.handle(
            "POST",
            "/review/claims/zzz/decision",
            body={"reviewer": "a", "verdict": "accept"},
        )
        assert missing.status == 404

    def test_evidence_view(self, review_app):
        response = review_app.handle("GET", "/review/reports/r1")
        assert response.ok
        body = response.body.split("?>", 1)[1]
        root = ElementTree.fromstring(body)
        ns = "{http://www.w3.org/1999/xhtml}"
        mark_ids = {
            mark.get("id") for mark in root.iter(f"{ns}mark")
        }
        assert {"claim-T1", "claim-T2"} <= mark_ids
        row_ids = {tr.get("id") for tr in root.iter(f"{ns}tr")}
        assert {"decision-T1", "decision-T2", "decision-R1"} <= row_ids
        assert review_app.handle("GET", "/review/reports/zzz").status == 404

    def test_evidence_view_shows_verdicts(self, review_app):
        review_app.handle(
            "POST",
            "/review/claims/r1:T1/decision",
            body={"reviewer": "alice", "verdict": "reject"},
        )
        html = review_app.handle("GET", "/review/reports/r1").body
        assert "reject · alice" in html

    def test_agreement_endpoint(self, review_app):
        assert review_app.handle("GET", "/review/agreement").body == {
            "doubly_reviewed": 0
        }
        for reviewer in ("alice", "bob"):
            for claim in ("r1:T1", "r1:T2"):
                review_app.handle(
                    "POST",
                    f"/review/claims/{claim}/decision",
                    body={"reviewer": reviewer, "verdict": "accept"},
                )
        response = review_app.handle("GET", "/review/agreement")
        assert response.ok
        assert response.body["doubly_reviewed"] == 2
        assert response.body["verdict_kappa"] == 1.0
        assert response.body["span_f1"] == 1.0

    def test_stats_review_section(self, review_app):
        review_app.handle(
            "POST",
            "/review/claims/r1:T1/decision",
            body={"reviewer": "alice", "verdict": "accept"},
        )
        stats = review_app.handle("GET", "/stats").body["review"]
        assert stats["queue_depth"] == 2
        assert stats["reviewers"] == {"alice": 1}

    def test_put_ann_reenrolls(self, review_app):
        review_app.handle(
            "POST",
            "/review/claims/r1:T1/decision",
            body={"reviewer": "alice", "verdict": "accept"},
        )
        ann = "T1\tDisease_disorder 15 20\tfever\n"
        response = review_app.handle("PUT", "/reports/r1/ann", body=ann)
        assert response.ok
        queue = review_app.handle("GET", "/review/queue").body
        assert [c["claim_id"] for c in queue["claims"]] == ["r1:T1"]
        assert queue["claims"][0]["label"] == "Disease_disorder"
        # Old decisions do not survive re-annotation.
        assert review_app.review.decisions_of("r1:T1") == []

    def test_delete_report_drops_claims(self, review_app):
        response = review_app.handle("DELETE", "/reports/r1")
        assert response.ok
        assert review_app.handle("GET", "/review/queue").body["total"] == 0
        assert review_app.handle("GET", "/review/reports/r1").status == 404


class TestRetrainLoop:
    """The extract -> review -> retrain loop, end to end: accepted
    edits become CRF training data that changes a held-out prediction."""

    def test_accepted_corrections_change_held_out_prediction(self):
        from repro.ner.tagger import NerTagger

        base = [
            _doc("b1", "patient took zyprexa daily for fever",
                 [("Symptom", "zyprexa"), ("Symptom", "fever")]),
            _doc("b2", "zyprexa was given after chest pain",
                 [("Symptom", "zyprexa")]),
        ]
        held_out = AnnotationDocument(
            doc_id="h", text="the doctor prescribed zyprexa today"
        )
        before = (
            NerTagger(decoder="crf", epochs=3, seed=5)
            .fit(base)
            .predict_document(held_out)
        )
        # The base tagger mislabels the drug the way its training data
        # does.
        assert ("Symptom" in {label for _, _, label in before})

        queue = ReviewQueue()
        review_docs = [
            _doc("r1", "nurse administered zyprexa at night",
                 [("Symptom", "zyprexa")]),
            _doc("r2", "zyprexa dose was reduced on admission",
                 [("Symptom", "zyprexa")]),
            _doc("r3", "he continued zyprexa without incident",
                 [("Symptom", "zyprexa")]),
            _doc("r4", "clinicians started zyprexa for agitation",
                 [("Symptom", "zyprexa")]),
        ]
        for doc in review_docs:
            for claim in queue.enqueue_document(doc.doc_id, doc):
                queue.decide(
                    claim.claim_id, "alice", "edit", label="Medication"
                )
        examples = queue.accepted_corrections()
        assert len(examples) == 4
        retrained = NerTagger(decoder="crf", epochs=3, seed=5).fit(
            base + [example.document for example in examples]
        )
        after = retrained.predict_document(held_out)
        assert after != before
        assert ("Medication" in {label for _, _, label in after})


class TestReviewHtmlRendering:
    def test_quotes_in_labels_stay_parseable(self):
        queue = ReviewQueue()
        doc = AnnotationDocument(
            doc_id="q", text='the "quoted" fever persisted'
        )
        doc.add_textbound('Sym"ptom', 13, 18)
        queue.enqueue_document("q", doc)
        html = render_review_html(queue, "q")
        ElementTree.fromstring(html.split("?>", 1)[1])

    def test_unenrolled_report(self):
        with pytest.raises(ReviewError):
            render_review_html(ReviewQueue(), "zzz")


class TestReviewFuzz:
    def test_smoke_batch_passes(self):
        from repro.testing import run

        report = run(subsystems=["review"], cases=40, seed=3)
        assert report.ok, report.failures
        assert report.counts["review"] == 40

    def test_registered_in_harness(self):
        from repro.testing import CHECKERS, GENERATORS, SUBSYSTEMS

        assert "review" in SUBSYSTEMS
        assert "review" in GENERATORS and "review" in CHECKERS

    def test_cases_are_json_serializable_and_valid(self):
        from repro.testing import generate_case
        from repro.testing.review import _valid_case

        for index in range(25):
            case = generate_case("review", 11, index)
            assert case == json.loads(json.dumps(case))
            assert _valid_case(case), case

    def test_generation_is_deterministic(self):
        from repro.testing import generate_case

        assert generate_case("review", 5, 9) == generate_case("review", 5, 9)

    def test_checker_catches_lost_decision(self):
        # A checker that cannot fail checks nothing: feed it a queue
        # implementation whose recovery forgets decisions.
        from repro.testing import generate_case
        from repro.testing.review import check_review_case
        from repro.review import queue as queue_module

        original = queue_module.ReviewQueue.durable_apply

        def lossy(self, op):
            if op.get("op") == "decide":
                return  # drop every replayed decision
            original(self, op)

        queue_module.ReviewQueue.durable_apply = lossy
        try:
            messages = []
            for index in range(60):
                case = generate_case("review", 2, index)
                message = check_review_case(case)
                if message:
                    messages.append(message)
            assert messages, "lossy recovery passed 60 cases undetected"
        finally:
            queue_module.ReviewQueue.durable_apply = original

    def test_checker_catches_replay_that_derives_differently(self, monkeypatch):
        # Claims are not journaled; replay derives them from the
        # standoff.  Plant a replay that loses the Negated attributes.
        from repro.review import queue as queue_module
        from repro.testing import generate_case
        from repro.testing.review import check_review_case

        original = queue_module.ReviewQueue.durable_apply

        def forgets_negation(self, op):
            if op.get("op") == "enqueue":
                kept = [
                    line
                    for line in op["ann"].split("\n")
                    if not line.startswith("A")
                ]
                op = {**op, "ann": "\n".join(kept)}
            original(self, op)

        monkeypatch.setattr(
            queue_module.ReviewQueue, "durable_apply", forgets_negation
        )
        messages = [
            message
            for index in range(60)
            if (message := check_review_case(generate_case("review", 2, index)))
        ]
        assert messages, "a replay that loses negation passed 60 cases"
        assert not any("checker crashed" in message for message in messages)
