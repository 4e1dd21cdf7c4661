"""Cohort retrieval: composed queries over all three stores.

The production-shaped CREATE workload — "patients with diagnosis X, on
medication Y, event A before event B" — expressed as declarative
:class:`CohortDefinition` objects, compiled per criterion to the
cheapest backing store by :class:`CohortEngine`, checked end to end by
the correctness harness's brute-force per-document oracle, and exported
as FHIR-style Bundles with span-level provenance.
"""

from repro.cohort.engine import CohortEngine, CohortResult, CriterionReport
from repro.cohort.fhir import (
    bundle_provenance,
    cohort_bundle,
    export_fhir_bundle,
    parse_bundle,
)
from repro.cohort.model import (
    CohortDefinition,
    EntityCriterion,
    GraphCriterion,
    MentionSpec,
    TemporalCriterion,
    TextCriterion,
    ValueCriterion,
    criterion_from_json,
)

__all__ = [
    "CohortDefinition",
    "CohortEngine",
    "CohortResult",
    "CriterionReport",
    "EntityCriterion",
    "GraphCriterion",
    "MentionSpec",
    "TemporalCriterion",
    "TextCriterion",
    "ValueCriterion",
    "bundle_provenance",
    "cohort_bundle",
    "criterion_from_json",
    "export_fhir_bundle",
    "parse_bundle",
]
