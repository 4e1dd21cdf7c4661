"""Parser and serializer for the BRAT ``.ann`` standoff format.

Supported line types (the full set brat emits for this schema):

* ``T<id>\\t<label> <start> <end>\\t<text>`` — text-bound annotation.
  Discontinuous spans (``start end;start end``) are normalized to their
  envelope span, matching how CREATe's indexer consumes them.  The
  offsets are authoritative; ``<text>`` is the covered surface with
  each line break written as a space, as brat writes it.
* ``R<id>\\t<label> Arg1:<id> Arg2:<id>`` — binary relation.
* ``E<id>\\t<label>:<trigger> <role>:<id> ...`` — event.
* ``A<id>\\t<label> <target> [<value>]`` — attribute.
* ``#<id>\\tAnnotatorNotes <target>\\t<text>`` — note.
"""

from __future__ import annotations

from pathlib import Path

from repro.annotation.model import (
    AnnotationDocument,
    AttributeAnn,
    EventAnn,
    NoteAnn,
    RelationAnn,
    TextBound,
)
from repro.exceptions import AnnotationError


def parse_ann(doc_id: str, text: str, ann_content: str) -> AnnotationDocument:
    """Parse ``.ann`` content against its source ``text``.

    Args:
        doc_id: identifier for the resulting document.
        text: the raw document text the offsets index into.
        ann_content: the full contents of the ``.ann`` file.

    Returns:
        A fully verified :class:`AnnotationDocument`.

    Raises:
        AnnotationError: on malformed lines or dangling references.
    """
    doc = parse_ann_unverified(doc_id, text, ann_content)
    doc.verify()
    return doc


def parse_ann_unverified(
    doc_id: str, text: str, ann_content: str
) -> AnnotationDocument:
    """:func:`parse_ann` without the referential-integrity pass.

    Lines must still be well formed and every span must cover its
    surface text; references to absent annotations are kept as written.
    The review queue enrolls, journals and replays documents through
    this: enrollment skips a relation whose endpoint is absent rather
    than refusing the document, so the standoff must read back too.
    """
    doc = AnnotationDocument(doc_id=doc_id, text=text)
    # Split on "\n" only: ``str.splitlines`` would also cut a line at a
    # form feed or U+2028 inside a surface string.
    for lineno, raw_line in enumerate(ann_content.split("\n"), start=1):
        line = raw_line.removesuffix("\r")
        if not line.strip():
            continue
        try:
            _parse_line(doc, line)
        except AnnotationError:
            raise
        except (ValueError, IndexError) as exc:
            raise AnnotationError(
                f"{doc_id}:{lineno}: malformed annotation line: {line!r}"
            ) from exc
    return doc


def _parse_line(doc: AnnotationDocument, line: str) -> None:
    kind = line[0]
    if kind == "T":
        _parse_textbound(doc, line)
    elif kind == "R":
        _parse_relation(doc, line)
    elif kind == "E":
        _parse_event(doc, line)
    elif kind == "A" or kind == "M":
        _parse_attribute(doc, line)
    elif kind == "#":
        _parse_note(doc, line)
    else:
        raise AnnotationError(f"unknown annotation line type: {line!r}")


def _parse_textbound(doc: AnnotationDocument, line: str) -> None:
    ann_id, header, surface = line.split("\t", 2)
    label, offsets = header.split(" ", 1)
    # Discontinuous spans are ;-separated fragments: take the envelope.
    fragments = []
    for fragment in offsets.split(";"):
        start_str, end_str = fragment.split()
        fragments.append((int(start_str), int(end_str)))
    start = min(frag[0] for frag in fragments)
    end = max(frag[1] for frag in fragments)
    tb = TextBound(ann_id, label, start, end, doc.text[start:end])
    tb.verify_against(doc.text)
    if len(fragments) > 1:
        # The .ann surface is fragment-joined; we keep the envelope text
        # but record the original fragments as a note-free check only.
        pass
    else:
        if surface != _one_line(tb.text):
            raise AnnotationError(
                f"{ann_id}: surface text {surface!r} disagrees with "
                f"offsets covering {tb.text!r}"
            )
    if ann_id in doc.textbounds:
        raise AnnotationError(f"duplicate annotation id {ann_id}")
    doc.textbounds[ann_id] = tb


def _parse_relation(doc: AnnotationDocument, line: str) -> None:
    ann_id, body = line.split("\t", 1)
    parts = body.split()
    label = parts[0]
    args = dict(part.split(":", 1) for part in parts[1:])
    if "Arg1" not in args or "Arg2" not in args:
        raise AnnotationError(f"{ann_id}: relation missing Arg1/Arg2")
    if ann_id in doc.relations:
        raise AnnotationError(f"duplicate annotation id {ann_id}")
    doc.relations[ann_id] = RelationAnn(ann_id, label, args["Arg1"], args["Arg2"])


def _parse_event(doc: AnnotationDocument, line: str) -> None:
    ann_id, body = line.split("\t", 1)
    parts = body.split()
    label, trigger = parts[0].split(":", 1)
    arguments = tuple(
        tuple(part.split(":", 1)) for part in parts[1:]
    )
    if ann_id in doc.events:
        raise AnnotationError(f"duplicate annotation id {ann_id}")
    doc.events[ann_id] = EventAnn(ann_id, label, trigger, arguments)


def _parse_attribute(doc: AnnotationDocument, line: str) -> None:
    ann_id, body = line.split("\t", 1)
    parts = body.split()
    label, target = parts[0], parts[1]
    value = parts[2] if len(parts) > 2 else None
    if ann_id in doc.attributes:
        raise AnnotationError(f"duplicate annotation id {ann_id}")
    doc.attributes[ann_id] = AttributeAnn(ann_id, label, target, value)


def _parse_note(doc: AnnotationDocument, line: str) -> None:
    ann_id, body, note_text = line.split("\t", 2)
    label, target = body.split()
    doc.notes[ann_id] = NoteAnn(ann_id, label, target, note_text)


def serialize_ann(doc: AnnotationDocument) -> str:
    """Serialize a document's annotations back to ``.ann`` format.

    The output round-trips through :func:`parse_ann`: ids, labels,
    offsets, arguments and notes are preserved exactly.
    """
    lines: list[str] = []
    for tb in sorted(doc.textbounds.values(), key=_numeric_id_key):
        lines.append(
            f"{tb.ann_id}\t{tb.label} {tb.start} {tb.end}\t{_one_line(tb.text)}"
        )
    for event in sorted(doc.events.values(), key=_numeric_id_key):
        args = " ".join(f"{role}:{ref}" for role, ref in event.arguments)
        suffix = f" {args}" if args else ""
        lines.append(f"{event.ann_id}\t{event.label}:{event.trigger}{suffix}")
    for rel in sorted(doc.relations.values(), key=_numeric_id_key):
        lines.append(
            f"{rel.ann_id}\t{rel.label} Arg1:{rel.source} Arg2:{rel.target}"
        )
    for attr in sorted(doc.attributes.values(), key=_numeric_id_key):
        value = f" {attr.value}" if attr.value is not None else ""
        lines.append(f"{attr.ann_id}\t{attr.label} {attr.target}{value}")
    for note in sorted(doc.notes.values(), key=_numeric_id_key):
        lines.append(f"{note.ann_id}\t{note.label} {note.target}\t{note.text}")
    return "\n".join(lines) + ("\n" if lines else "")


def _one_line(surface: str) -> str:
    """A span's surface as a ``T`` line carries it: a span that crosses
    a line break of the text still takes exactly one line."""
    return surface.replace("\r", " ").replace("\n", " ")


def _numeric_id_key(ann) -> tuple[str, int]:
    ann_id = ann.ann_id
    prefix = ann_id[0]
    try:
        number = int(ann_id[1:])
    except ValueError:
        number = 0
    return (prefix, number)


def read_document(txt_path: str | Path) -> AnnotationDocument:
    """Load a brat document pair: ``<name>.txt`` + ``<name>.ann``.

    Args:
        txt_path: path to the text file; the annotation file is located
            by swapping the extension.

    Raises:
        AnnotationError: the .ann file is missing or malformed.
    """
    txt_path = Path(txt_path)
    ann_path = txt_path.with_suffix(".ann")
    if not ann_path.exists():
        raise AnnotationError(f"no annotation file next to {txt_path}")
    text = txt_path.read_text(encoding="utf-8")
    return parse_ann(txt_path.stem, text, ann_path.read_text(encoding="utf-8"))


def write_document(doc: AnnotationDocument, directory: str | Path) -> Path:
    """Write the ``<doc_id>.txt`` / ``<doc_id>.ann`` pair into ``directory``.

    Both files are written atomically (temp file + fsync + rename), so
    an interrupted export never leaves a half-written or empty file for
    a reader to misparse as an empty annotation set.

    Returns the path of the text file.
    """
    from repro.durability import atomic_write

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    txt_path = atomic_write(directory / f"{doc.doc_id}.txt", doc.text)
    atomic_write(directory / f"{doc.doc_id}.ann", serialize_ann(doc))
    return txt_path
