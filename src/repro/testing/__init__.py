"""Differential & metamorphic correctness harness.

The optimized retrieval stack (inverted index + BM25, backtracking
subgraph matching, Viterbi CRF decoding, fixpoint temporal closure)
is fuzzed against pure brute-force **reference oracles** plus a suite
of **metamorphic invariants** (insertion-order permutation, add/remove
restoration, serial-vs-parallel ingest equivalence, query-term
duplication monotonicity, fusion determinism).

Run it with ``python -m repro.testing --cases 500 --seed 0``; failures
shrink to minimal reproducers saved in a replayable seed file.
"""

from repro.testing.crash import (
    apply_action,
    canonical_state,
    check_durability_case,
)
from repro.testing.differential import (
    CHECKERS,
    GENERATORS,
    SUBSYSTEMS,
    Failure,
    RunReport,
    check_case,
    generate_case,
    run,
)
from repro.testing.oracles import (
    ReferenceSearchEngine,
    brute_force_bindings,
    brute_force_map,
    exhaustive_decode,
    reference_closure,
    reference_fuse,
)
from repro.testing.review import check_review_case, gen_review_case
from repro.testing.rng import case_rng, derive_seed
from repro.testing.shrink import shrink

__all__ = [
    "CHECKERS",
    "GENERATORS",
    "SUBSYSTEMS",
    "Failure",
    "RunReport",
    "ReferenceSearchEngine",
    "apply_action",
    "brute_force_bindings",
    "brute_force_map",
    "canonical_state",
    "case_rng",
    "check_case",
    "check_durability_case",
    "check_review_case",
    "derive_seed",
    "gen_review_case",
    "exhaustive_decode",
    "generate_case",
    "reference_closure",
    "reference_fuse",
    "run",
    "shrink",
]
