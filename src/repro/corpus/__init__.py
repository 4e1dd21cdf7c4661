"""Synthetic clinical corpus: the data substitution layer.

The paper runs on ~118k PubMed cardiovascular case reports plus the
licensed I2B2-2012 / TB-Dense corpora; none of these can ship offline.
This package generates deterministic synthetic equivalents with *gold*
annotations: case reports with known entity spans and a ground-truth
event timeline, PubMed-like metadata following the paper's Figure 1
category distribution, NER and temporal-relation datasets, and a query
workload with relevance judgements for the IR evaluation.
"""

from repro.corpus.lexicon import LEXICON, CVD_AREAS, Lexicon
from repro.corpus.timeline import ClinicalEvent, Timeline, interval_relation
from repro.corpus.generator import CaseReport, CaseReportGenerator
from repro.corpus.pubmed import (
    CATEGORY_DISTRIBUTION,
    sample_categories,
    build_corpus,
)
from repro.corpus.datasets import (
    NerDataset,
    make_ner_dataset,
    NER_DATASET_NAMES,
    TemporalDataset,
    TemporalInstance,
    make_temporal_dataset,
)
from repro.corpus.queries import QueryCase, make_query_workload
from repro.corpus.export import (
    export_brat_directory,
    export_conll,
    to_conll,
    parse_conll,
)

__all__ = [
    "LEXICON",
    "CVD_AREAS",
    "Lexicon",
    "ClinicalEvent",
    "Timeline",
    "interval_relation",
    "CaseReport",
    "CaseReportGenerator",
    "CATEGORY_DISTRIBUTION",
    "sample_categories",
    "build_corpus",
    "NerDataset",
    "make_ner_dataset",
    "NER_DATASET_NAMES",
    "TemporalDataset",
    "TemporalInstance",
    "make_temporal_dataset",
    "QueryCase",
    "export_brat_directory",
    "export_conll",
    "to_conll",
    "parse_conll",
    "make_query_workload",
]
