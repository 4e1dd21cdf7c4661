"""Extractor training: compact CRF tables against the dense reference.

``ClinicalExtractor.train`` runs at every start of the demo system.  Its
CRF sizes the emission table and the Adagrad accumulator to the hashed
features training saw (plus one all-zero row for the rest), runs
forward-backward on :func:`repro.ml.infer._logsumexp`, and the temporal
model's Adam step works in place.
:func:`repro.testing.oracles.reference_training` trains the same
extractor with the code before that change: a dense ``(2^18, L)``
table and accumulator, ``scipy.special.logsumexp``, an Adam step
that allocates a new array per operation, and the embedder's k-means++
seeding that re-stacks every point's distance to every chosen centroid.

* **Identity first**: at ``build_demo_system``'s training size (60
  reports, unlabeled sentences for the embedder, seed 13) the compact
  CRF expanded through ``_row`` equals the dense table bit for bit, as
  do the transitions, start and end scores, the embedder's centroids,
  the temporal weights and their Adam moments, and the spans tagged on
  20 held-out reports.
* **Then the ratio**: seconds per fit both ways, one fit each in this
  process (the traced pair below runs first and warms both paths); the
  compact trainer must be >= 1.3x the reference.
* Each fit's ``tracemalloc`` peak is printed, measured on separate
  10-report fits (tracing slows a fit down 1.5-2.5x).
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np
import pytest
from conftest import write_result

from repro.corpus.generator import CaseReportGenerator
from repro.pipeline import ClinicalExtractor
from repro.testing.oracles import (
    reference_training,
    scipy_has_the_ported_logsumexp,
)
from repro.text.tokenize import tokenize

N_TRAIN = 60  # build_demo_system's default
N_TRACED = 10
N_HELD_OUT = 20
SEED = 13


def _train_reports(n: int) -> list:
    generator = CaseReportGenerator(seed=900)
    return [
        generator.generate(f"train-{i:04d}", "cardiovascular")
        for i in range(n)
    ]


def _fit(reports, reference: bool) -> ClinicalExtractor:
    unlabeled = [[token.text for token in tokenize(r.text)] for r in reports]
    if not reference:
        return ClinicalExtractor.train(
            reports, unlabeled_sentences=unlabeled, seed=SEED
        )
    with reference_training():
        return ClinicalExtractor.train(
            reports, unlabeled_sentences=unlabeled, seed=SEED
        )


def _timed_fit(reports, reference: bool) -> tuple[ClinicalExtractor, float]:
    start = time.perf_counter()
    extractor = _fit(reports, reference)
    return extractor, time.perf_counter() - start


def _traced_peak_mb(reports, reference: bool) -> float:
    tracemalloc.start()
    try:
        _fit(reports, reference)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.skipif(
    not scipy_has_the_ported_logsumexp(),
    reason="the dense reference trains on this scipy's older logsumexp",
)
def test_compact_training_against_the_dense_reference():
    traced = _train_reports(N_TRACED)
    reference_peak = _traced_peak_mb(traced, reference=True)
    compact_peak = _traced_peak_mb(traced, reference=False)

    reports = _train_reports(N_TRAIN)
    reference, reference_s = _timed_fit(reports, reference=True)
    compact, compact_s = _timed_fit(reports, reference=False)

    crf, dense = compact.ner._model, reference.ner._model
    assert _same_bits(crf._emit[crf._row], dense._emit)
    for name in ("_trans", "_start", "_end"):
        assert _same_bits(getattr(crf, name), getattr(dense, name)), name
    centroids = compact.ner.embedder._centroids
    reference_centroids = reference.ner.embedder._centroids
    assert sorted(centroids) == sorted(reference_centroids)
    for k, centers in centroids.items():
        assert _same_bits(centers, reference_centroids[k]), k
    for name in ("weights", "bias", "_m_w", "_v_w"):
        assert _same_bits(
            getattr(compact.temporal.model, name),
            getattr(reference.temporal.model, name),
        ), name
    held_out = CaseReportGenerator(seed=901)
    for i in range(N_HELD_OUT):
        text = held_out.generate(f"held-{i}").text
        assert compact.ner.predict_spans(text) == (
            reference.ner.predict_spans(text)
        )

    ratio = reference_s / compact_s
    lines = [
        f"ClinicalExtractor.train, {N_TRAIN} reports (tracemalloc peak "
        f"on {N_TRACED}); CRF emission rows {len(crf._emit)} compact vs "
        f"{len(dense._emit)} dense",
        f"{'trainer':<30}{'fit s':>8}{'speedup':>10}{'peak MB':>10}",
        f"{'dense reference':<30}{reference_s:>8.2f}{1.0:>9.2f}x"
        f"{reference_peak:>10.1f}",
        f"{'compact (production)':<30}{compact_s:>8.2f}{ratio:>9.2f}x"
        f"{compact_peak:>10.1f}",
    ]
    write_result("bench_train", lines)

    assert ratio >= 1.3, (
        f"compact training only {ratio:.2f}x the dense reference "
        f"({compact_s:.2f} vs {reference_s:.2f} s)"
    )
