"""Evaluation datasets: three NER corpora and two temporal-RE corpora.

Substitutes for the paper's evaluation data:

* NER (paper: "three public datasets", +1.5 F1 claim):
  ``cardio-cases`` (CVD reports, full schema), ``maccrobat-like``
  (mixed categories, full schema, noisier narratives) and ``i2b2-like``
  (mixed categories projected onto the I2B2-2010 coarse label set
  PROBLEM / TREATMENT / TEST).
* Temporal RE (paper: I2B2-2012 +1.98 F1, TB-Dense +2.01 F1):
  ``i2b2-2012-like`` (3-way BEFORE/AFTER/OVERLAP over event pairs up to
  distance 3 — the dense pair set makes transitivity informative) and
  ``tbdense-like`` (6-way BEFORE/AFTER/INCLUDES/IS_INCLUDED/
  SIMULTANEOUS/VAGUE).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.annotation.model import AnnotationDocument
from repro.corpus.generator import CaseReportGenerator, GeneratorConfig
from repro.corpus.lexicon import LEXICON
from repro.corpus.pubmed import sample_categories
from repro.corpus.timeline import Timeline, dense_relation, interval_relation
from repro.schema.types import EventType
from repro.text.tokenize import tokenize

NER_DATASET_NAMES = ("cardio-cases", "maccrobat-like", "i2b2-like")

# I2B2-2010-style projection of schema labels onto coarse concepts.
_I2B2_PROJECTION = {
    EventType.DISEASE_DISORDER.value: "PROBLEM",
    EventType.SIGN_SYMPTOM.value: "PROBLEM",
    EventType.MEDICATION.value: "TREATMENT",
    EventType.THERAPEUTIC_PROCEDURE.value: "TREATMENT",
    EventType.DIAGNOSTIC_PROCEDURE.value: "TEST",
    EventType.LAB_VALUE.value: "TEST",
}


@dataclass
class NerDataset:
    """A named NER corpus split into train/test annotation documents.

    ``unlabeled`` holds tokenized sentences from a larger corpus drawn
    from the *full* lexicon — the pretraining material for contextual
    embeddings (the analog of C-FLAIR's unlabeled clinical pretraining
    corpus).  Train documents come from a restricted lexicon slice and
    test documents from the full lexicon, so test text contains entity
    surfaces unseen in training (lexical holdout).
    """

    name: str
    train: list[AnnotationDocument]
    test: list[AnnotationDocument]
    label_set: tuple[str, ...]
    unlabeled: list[list[str]] = field(default_factory=list)


def _project_labels(
    doc: AnnotationDocument, projection: dict[str, str]
) -> AnnotationDocument:
    """Rewrite span labels through ``projection``; unmapped spans drop."""
    out = AnnotationDocument(doc_id=doc.doc_id, text=doc.text)
    for tb in doc.spans_sorted():
        mapped = projection.get(tb.label)
        if mapped is not None:
            out.add_textbound(mapped, tb.start, tb.end)
    return out


def make_ner_dataset(
    name: str,
    n_train: int = 120,
    n_test: int = 40,
    seed: int = 0,
    n_unlabeled: int = 250,
    holdout_fraction: float = 0.65,
) -> NerDataset:
    """Build one of the three NER evaluation corpora.

    Training documents draw entity terms from a lexicon restricted to
    its first ``holdout_fraction``; test documents draw from the full
    lexicon, so a substantial share of test entity surfaces never occur
    in training.  ``n_unlabeled`` extra documents (full lexicon, no
    labels kept) provide the contextual-embedding pretraining corpus.

    Raises:
        ValueError: unknown dataset name.
    """
    if name == "cardio-cases":
        base_seed, config, projection = seed, None, None
        mixed_categories = False
    elif name == "maccrobat-like":
        base_seed = seed + 100
        config = GeneratorConfig(
            extra_symptom_prob=0.75,
            distractor_prob=0.6,
            complication_prob=0.75,
            second_workup_prob=0.65,
        )
        projection = None
        mixed_categories = True
    elif name == "i2b2-like":
        base_seed, config, projection = seed + 200, None, _I2B2_PROJECTION
        mixed_categories = True
    else:
        raise ValueError(
            f"unknown NER dataset {name!r}; choose from {NER_DATASET_NAMES}"
        )

    train_lexicon = LEXICON.restricted(holdout_fraction)
    train_gen = CaseReportGenerator(
        seed=base_seed, lexicon=train_lexicon, config=config
    )
    test_gen = CaseReportGenerator(
        seed=base_seed + 1, lexicon=LEXICON, config=config
    )
    unlabeled_gen = CaseReportGenerator(
        seed=base_seed + 2, lexicon=LEXICON, config=config
    )

    total = n_train + n_test
    if mixed_categories:
        categories = sample_categories(total + n_unlabeled, seed=base_seed + 3)
    else:
        categories = ["cardiovascular"] * (total + n_unlabeled)

    def build(gen, idx, count, offset):
        docs = []
        for k in range(count):
            i = offset + k
            raw = gen.generate(f"{name}-{idx}-{i:04d}", categories[i])
            doc = raw.annotations
            if projection is not None:
                doc = _project_labels(doc, projection)
            docs.append(doc)
        return docs

    train = build(train_gen, "tr", n_train, 0)
    test = build(test_gen, "te", n_test, n_train)
    unlabeled_docs = build(unlabeled_gen, "ul", n_unlabeled, total)
    unlabeled = [
        [token.text for token in tokenize(doc.text)]
        for doc in unlabeled_docs
    ]

    if projection is not None:
        labels: tuple[str, ...] = ("PROBLEM", "TREATMENT", "TEST")
    else:
        labels = _span_labels(train + test)
    return NerDataset(name, train, test, labels, unlabeled)


def _span_labels(docs: list[AnnotationDocument]) -> tuple[str, ...]:
    labels = {tb.label for doc in docs for tb in doc.textbounds.values()}
    return tuple(sorted(labels))


# -- temporal relation datasets ---------------------------------------------


@dataclass(frozen=True, slots=True)
class TemporalInstance:
    """One labeled event pair.

    Attributes:
        doc_id: owning document.
        src_id / tgt_id: BRAT T-ids of the two events.
        label: gold relation.
        narrative_distance: |position difference| in narrative order.
    """

    doc_id: str
    src_id: str
    tgt_id: str
    label: str
    narrative_distance: int


@dataclass
class TemporalDocument:
    """One document's events (narrative order) and labeled pairs."""

    doc_id: str
    annotations: AnnotationDocument
    event_order: list[str] = field(default_factory=list)
    pairs: list[TemporalInstance] = field(default_factory=list)


@dataclass
class TemporalDataset:
    """A named temporal-RE corpus."""

    name: str
    train: list[TemporalDocument]
    test: list[TemporalDocument]
    label_set: tuple[str, ...]

    def all_instances(self, split: str = "train") -> list[TemporalInstance]:
        """Flatten one split's labeled pairs."""
        docs = self.train if split == "train" else self.test
        return [pair for doc in docs for pair in doc.pairs]


def pairs_from_timeline(
    doc_id: str,
    timeline: Timeline,
    max_distance: int,
    labeler,
) -> tuple[list[str], list[TemporalInstance]]:
    """Events in narrative order, and a pair labelled by ``labeler`` for
    every two events at most ``max_distance`` apart in that order."""
    order = [event.event_id for event in timeline.events]
    pairs = []
    for i, a in enumerate(timeline.events):
        for j in range(i + 1, min(i + 1 + max_distance, len(timeline.events))):
            b = timeline.events[j]
            pairs.append(
                TemporalInstance(
                    doc_id, a.event_id, b.event_id, labeler(a, b), j - i
                )
            )
    return order, pairs


def make_temporal_dataset(
    name: str,
    n_train: int = 100,
    n_test: int = 35,
    seed: int = 0,
    config: GeneratorConfig | None = None,
) -> TemporalDataset:
    """Build ``i2b2-2012-like`` or ``tbdense-like``.

    The default generator configuration maximizes relation-variant
    density (frequent optional events, moderate cue noise) so local
    classification has real errors for global inference to repair —
    the regime both source corpora put extraction systems in.

    Raises:
        ValueError: unknown dataset name.
    """
    if name == "i2b2-2012-like":
        labeler = interval_relation
        max_distance = 3
        gen_seed = seed + 300
    elif name == "tbdense-like":
        labeler = dense_relation
        max_distance = 3
        gen_seed = seed + 400
    else:
        raise ValueError(f"unknown temporal dataset {name!r}")

    if config is None:
        config = GeneratorConfig(
            extra_symptom_prob=0.85,
            second_workup_prob=0.75,
            therapeutic_procedure_prob=0.9,
            complication_prob=0.9,
            second_course_event_prob=0.6,
            cue_noise=0.3,
        )
    generator = CaseReportGenerator(seed=gen_seed, config=config)
    docs: list[TemporalDocument] = []
    for i in range(n_train + n_test):
        report = generator.generate(f"{name}-{i:04d}", "cardiovascular")
        order, pairs = pairs_from_timeline(
            report.report_id, report.timeline, max_distance, labeler
        )
        docs.append(
            TemporalDocument(
                report.report_id, report.annotations, order, pairs
            )
        )
    labels = tuple(
        sorted({pair.label for doc in docs for pair in doc.pairs})
    )
    return TemporalDataset(name, docs[:n_train], docs[n_train:], labels)
