"""Object model for BRAT standoff annotations.

Mirrors brat's annotation primitives: ``T`` text-bound annotations,
``R`` binary relations, ``E`` events (trigger + role arguments), ``A``
attributes and ``#`` notes.  Labels are plain strings at this layer;
schema conformance is checked separately by
:class:`repro.schema.SchemaValidator`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import AnnotationError, SpanError


@dataclass(frozen=True, slots=True)
class TextBound:
    """A typed span of text (brat ``T`` line).

    Attributes:
        ann_id: brat identifier, e.g. ``"T3"``.
        label: span type, e.g. ``"Sign_symptom"``.
        start: character offset of span start (half-open interval).
        end: character offset one past span end.
        text: the covered surface string.
    """

    ann_id: str
    label: str
    start: int
    end: int
    text: str

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise SpanError(
                f"{self.ann_id}: invalid span [{self.start}, {self.end})"
            )

    def verify_against(self, document_text: str) -> None:
        """Check offsets index ``document_text`` and cover ``text``.

        Raises:
            SpanError: offsets fall outside the document or the covered
                substring differs from the recorded surface text.
        """
        if self.end > len(document_text):
            raise SpanError(
                f"{self.ann_id}: span end {self.end} beyond document "
                f"length {len(document_text)}"
            )
        covered = document_text[self.start : self.end]
        if covered != self.text:
            raise SpanError(
                f"{self.ann_id}: recorded text {self.text!r} does not match "
                f"document slice {covered!r}"
            )


@dataclass(frozen=True, slots=True)
class RelationAnn:
    """A directed binary relation (brat ``R`` line).

    ``source`` and ``target`` reference :class:`TextBound` ids (brat
    calls them Arg1/Arg2).
    """

    ann_id: str
    label: str
    source: str
    target: str


@dataclass(frozen=True, slots=True)
class EventAnn:
    """An n-ary event (brat ``E`` line): a trigger plus role arguments.

    Attributes:
        ann_id: brat identifier, e.g. ``"E1"``.
        label: event type (must match the trigger's label in brat).
        trigger: id of the trigger :class:`TextBound`.
        arguments: mapping role name -> referenced annotation id.
    """

    ann_id: str
    label: str
    trigger: str
    arguments: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True, slots=True)
class AttributeAnn:
    """A binary or valued attribute on another annotation (``A`` line)."""

    ann_id: str
    label: str
    target: str
    value: str | None = None


@dataclass(frozen=True, slots=True)
class NoteAnn:
    """A free-text annotator note (``#`` line)."""

    ann_id: str
    label: str
    target: str
    text: str


@dataclass
class AnnotationDocument:
    """A document plus all of its standoff annotations.

    This is the unit the annotation interface edits, the corpus
    generator emits as gold data, and the extraction pipeline produces
    as predictions.
    """

    doc_id: str
    text: str
    textbounds: dict[str, TextBound] = field(default_factory=dict)
    relations: dict[str, RelationAnn] = field(default_factory=dict)
    events: dict[str, EventAnn] = field(default_factory=dict)
    attributes: dict[str, AttributeAnn] = field(default_factory=dict)
    notes: dict[str, NoteAnn] = field(default_factory=dict)

    # -- construction helpers -------------------------------------------

    def add_textbound(
        self, label: str, start: int, end: int, ann_id: str | None = None
    ) -> TextBound:
        """Create, register and return a text-bound span over the text."""
        if ann_id is None:
            ann_id = self._next_id("T")
        if ann_id in self.textbounds:
            raise AnnotationError(f"duplicate annotation id {ann_id}")
        tb = TextBound(ann_id, label, start, end, self.text[start:end])
        tb.verify_against(self.text)
        self.textbounds[ann_id] = tb
        return tb

    def add_relation(
        self, label: str, source: str, target: str, ann_id: str | None = None
    ) -> RelationAnn:
        """Create and register a relation between two existing spans."""
        for ref in (source, target):
            if ref not in self.textbounds:
                raise AnnotationError(
                    f"relation references unknown annotation {ref}"
                )
        if source == target:
            raise AnnotationError("relation endpoints must differ")
        if ann_id is None:
            ann_id = self._next_id("R")
        if ann_id in self.relations:
            raise AnnotationError(f"duplicate annotation id {ann_id}")
        rel = RelationAnn(ann_id, label, source, target)
        self.relations[ann_id] = rel
        return rel

    def add_event(
        self,
        label: str,
        trigger: str,
        arguments: dict[str, str] | None = None,
        ann_id: str | None = None,
    ) -> EventAnn:
        """Create and register an event anchored on ``trigger``."""
        if trigger not in self.textbounds:
            raise AnnotationError(f"event trigger {trigger} unknown")
        if ann_id is None:
            ann_id = self._next_id("E")
        if ann_id in self.events:
            raise AnnotationError(f"duplicate annotation id {ann_id}")
        args = tuple((arguments or {}).items())
        event = EventAnn(ann_id, label, trigger, args)
        self.events[ann_id] = event
        return event

    def add_attribute(
        self,
        label: str,
        target: str,
        value: str | None = None,
        ann_id: str | None = None,
    ) -> AttributeAnn:
        """Attach an attribute (e.g. ``Negated``) to an annotation."""
        if not self._id_exists(target):
            raise AnnotationError(
                f"attribute references unknown annotation {target}"
            )
        if ann_id is None:
            ann_id = self._next_id("A")
        if ann_id in self.attributes:
            raise AnnotationError(f"duplicate annotation id {ann_id}")
        attribute = AttributeAnn(ann_id, label, target, value)
        self.attributes[ann_id] = attribute
        return attribute

    def attributes_of(self, ann_id: str) -> list[AttributeAnn]:
        """All attributes attached to ``ann_id``."""
        return [
            attribute
            for attribute in self.attributes.values()
            if attribute.target == ann_id
        ]

    def is_negated(self, ann_id: str) -> bool:
        """Does ``ann_id`` carry a ``Negated`` attribute?"""
        return any(
            attribute.label == "Negated"
            for attribute in self.attributes_of(ann_id)
        )

    def add_note(
        self, target: str, text: str, ann_id: str | None = None
    ) -> NoteAnn:
        """Attach an annotator note to an existing annotation."""
        if not self._id_exists(target):
            raise AnnotationError(f"note references unknown annotation {target}")
        if ann_id is None:
            ann_id = self._next_id("#")
        note = NoteAnn(ann_id, "AnnotatorNotes", target, text)
        self.notes[ann_id] = note
        return note

    # -- queries ----------------------------------------------------------

    def spans_sorted(self) -> list[TextBound]:
        """All text-bound spans in document order (start, then end)."""
        return sorted(
            self.textbounds.values(), key=lambda tb: (tb.start, tb.end)
        )

    def relations_of(self, ann_id: str) -> list[RelationAnn]:
        """All relations in which ``ann_id`` participates."""
        return [
            rel
            for rel in self.relations.values()
            if ann_id in (rel.source, rel.target)
        ]

    def spans_with_label(self, label: str) -> list[TextBound]:
        """All spans of a given type, in document order."""
        return [tb for tb in self.spans_sorted() if tb.label == label]

    def verify(self) -> None:
        """Validate internal referential integrity and span consistency.

        Raises:
            AnnotationError / SpanError: dangling references or spans
                that disagree with the document text.
        """
        for tb in self.textbounds.values():
            tb.verify_against(self.text)
        for rel in self.relations.values():
            for ref in (rel.source, rel.target):
                if ref not in self.textbounds:
                    raise AnnotationError(
                        f"{rel.ann_id}: dangling reference {ref}"
                    )
        for event in self.events.values():
            if event.trigger not in self.textbounds:
                raise AnnotationError(
                    f"{event.ann_id}: dangling trigger {event.trigger}"
                )
            for role, ref in event.arguments:
                if not self._id_exists(ref):
                    raise AnnotationError(
                        f"{event.ann_id}: dangling {role} argument {ref}"
                    )
        for note in self.notes.values():
            if not self._id_exists(note.target):
                raise AnnotationError(
                    f"{note.ann_id}: dangling note target {note.target}"
                )

    # -- internals --------------------------------------------------------

    def _id_exists(self, ann_id: str) -> bool:
        return (
            ann_id in self.textbounds
            or ann_id in self.relations
            or ann_id in self.events
            or ann_id in self.attributes
        )

    def _next_id(self, prefix: str) -> str:
        pools = {
            "T": self.textbounds,
            "R": self.relations,
            "E": self.events,
            "A": self.attributes,
            "#": self.notes,
        }
        pool = pools[prefix]
        n = len(pool) + 1
        while f"{prefix}{n}" in pool:
            n += 1
        return f"{prefix}{n}"
