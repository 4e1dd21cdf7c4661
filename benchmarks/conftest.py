"""Shared benchmark fixtures and the result printer.

Importing this conftest puts ``src/`` on ``sys.path``, so
``pytest benchmarks/`` works from any directory with no ad-hoc
``PYTHONPATH`` — the repo checkout is self-sufficient.

Every benchmark prints the rows/series it reproduces (run with ``-s``
to see them) and asserts its own claim; nothing is written into the
checkout.  EXPERIMENTS.md quotes the printed tables.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
_SRC = str(REPO_ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import pytest  # noqa: E402


def write_result(name: str, lines: list[str]) -> None:
    """Print one benchmark's result table under its name."""
    print(f"\n[{name}]\n" + "\n".join(lines))


def assert_floors(
    measured: dict[str, float], floors: dict[str, float], places: int
) -> None:
    """The ``paper-claims`` gate: every committed headline number still
    holds.  The quality benches are seeded and reproduce exactly, so
    ``floors`` carries the numbers as EXPERIMENTS.md prints them and
    the comparison is made at that precision (``places`` decimals)."""
    shaved = {
        key: (value, floor)
        for key, floor in floors.items()
        if (value := round(measured[key], places)) < floor
    }
    assert not shaved, f"below the committed floor (measured, floor): {shaved}"


@pytest.fixture(scope="session")
def ir_corpus():
    """400 gold reports for the retrieval benchmarks (built once)."""
    from repro.corpus.pubmed import build_corpus

    return build_corpus(400, seed=11)


@pytest.fixture(scope="session")
def gold_ir_index(ir_corpus):
    """CREATe-IR dual index over gold annotations."""
    from repro.ir.indexer import CreateIrIndexer

    indexer = CreateIrIndexer()
    for report in ir_corpus:
        indexer.index_annotation_document(
            report.report_id, report.title, report.annotations
        )
    return indexer


@pytest.fixture(scope="session")
def trained_extractor():
    """An extraction stack trained on 40 gold reports (built once)."""
    from repro.corpus.generator import CaseReportGenerator
    from repro.pipeline import ClinicalExtractor
    from repro.text.tokenize import tokenize

    generator = CaseReportGenerator(seed=900)
    train = [generator.generate(f"bench-train-{i}") for i in range(40)]
    unlabeled = [[t.text for t in tokenize(r.text)] for r in train]
    return ClinicalExtractor.train(train, unlabeled_sentences=unlabeled)
