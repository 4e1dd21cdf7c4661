"""Global inference: document-level MAP assignment under consistency.

Given per-pair label probabilities, pick the joint assignment that
maximizes total log-probability subject to the algebra's transitivity
constraints, in three steps:

* the per-pair argmax, when no row of the clipped log-probabilities has
  a tied maximum and the argmax breaks no grounded rule.  It maximises
  every term of the objective on its own, so it is then the unique
  feasible optimum and no solver runs;
* otherwise the exact integer linear program, solved with
  ``scipy.optimize.milp``;
* a greedy repair pass when the solver fails (infeasible numerics or
  absent constraint structure).

ILP formulation (per document):

* binary ``x[p, r]`` per pair p and label r, with Σ_r x[p, r] = 1;
* objective: maximize Σ x[p, r] · log P(r | p);
* for each grounded rule r1(a,b) ∧ r2(b,c) → r3(a,c):
  ``x[ab, r1] + x[bc, r2] - x[ac, r3] <= 1``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy import optimize, sparse

from repro.corpus.datasets import TemporalDocument
from repro.temporal.psl import find_triples
from repro.temporal.relations import RelationAlgebra


def global_inference(
    doc: TemporalDocument,
    probs: np.ndarray,
    labels: Sequence[str],
    algebra: RelationAlgebra,
) -> list[str]:
    """Consistency-constrained MAP labels for one document's pairs.

    Args:
        doc: the document (supplies pair structure).
        probs: (n_pairs, n_labels) local probabilities.
        labels: column order of ``probs``.
        algebra: relation algebra for constraints.

    Returns:
        One label per pair (aligned with ``doc.pairs``).
    """
    n_pairs, n_labels = probs.shape
    if n_pairs == 0:
        return []
    triples = find_triples(doc)
    best = np.argmax(probs, axis=1).tolist()
    local = [labels[i] for i in best]
    if not triples:
        return local

    # Clipping is monotone, so on untied rows ``best`` is also the
    # argmax of the objective's terms.
    log_probs = np.log(np.clip(probs, 1e-12, None))
    maxima = log_probs == log_probs.max(axis=1, keepdims=True)
    untied = (maxima.sum(axis=1) == 1).all()
    if untied and not _violations(best, triples, labels, algebra):
        return local

    solution = _solve_ilp(log_probs, triples, labels, algebra)
    if solution is not None:
        return solution
    return _greedy_repair(doc, probs, list(labels), algebra, triples)


def _violations(
    assignment: Sequence[int],
    triples: list[tuple[int, int, int]],
    labels: Sequence[str],
    algebra: RelationAlgebra,
) -> list[tuple[int, int, int]]:
    """Grounded rules the assignment breaks: the triples whose ab and bc
    labels compose to one of ``labels`` that ac does not carry."""
    label_index = {label: i for i, label in enumerate(labels)}
    bad = []
    for i_ab, i_bc, i_ac in triples:
        r3 = algebra.compose(
            labels[assignment[i_ab]], labels[assignment[i_bc]]
        )
        if r3 in label_index and assignment[i_ac] != label_index[r3]:
            bad.append((i_ab, i_bc, i_ac))
    return bad


def _solve_ilp(
    log_probs: np.ndarray,
    triples: list[tuple[int, int, int]],
    labels: Sequence[str],
    algebra: RelationAlgebra,
) -> list[str] | None:
    n_pairs, n_labels = log_probs.shape
    n_vars = n_pairs * n_labels

    def var(pair: int, label: int) -> int:
        return pair * n_labels + label

    label_index = {label: i for i, label in enumerate(labels)}

    rows: list[int] = []
    cols: list[int] = []
    data: list[float] = []
    lower: list[float] = []
    upper: list[float] = []
    row_count = 0

    # Exactly-one-label rows.
    for p in range(n_pairs):
        for r in range(n_labels):
            rows.append(row_count)
            cols.append(var(p, r))
            data.append(1.0)
        lower.append(1.0)
        upper.append(1.0)
        row_count += 1

    # Transitivity rows.
    for i_ab, i_bc, i_ac in triples:
        for r1 in labels:
            for r2 in labels:
                r3 = algebra.compose(r1, r2)
                if r3 is None or r3 not in label_index:
                    continue
                rows.extend([row_count] * 3)
                cols.extend(
                    [
                        var(i_ab, label_index[r1]),
                        var(i_bc, label_index[r2]),
                        var(i_ac, label_index[r3]),
                    ]
                )
                data.extend([1.0, 1.0, -1.0])
                lower.append(-np.inf)
                upper.append(1.0)
                row_count += 1

    constraint_matrix = sparse.csr_matrix(
        (data, (rows, cols)), shape=(row_count, n_vars)
    )
    constraints = optimize.LinearConstraint(
        constraint_matrix, np.asarray(lower), np.asarray(upper)
    )
    result = optimize.milp(
        c=-log_probs.ravel(),  # milp minimizes
        constraints=constraints,
        integrality=np.ones(n_vars),
        bounds=optimize.Bounds(0.0, 1.0),
    )
    if not result.success or result.x is None:
        return None
    assignment = result.x.reshape(n_pairs, n_labels)
    return [labels[int(np.argmax(row))] for row in assignment]


def _greedy_repair(
    doc: TemporalDocument,
    probs: np.ndarray,
    labels: list[str],
    algebra: RelationAlgebra,
    triples: list[tuple[int, int, int]],
    max_passes: int = 10,
) -> list[str]:
    """Fallback: locally flip the cheapest pair until rules hold."""
    label_index = {label: i for i, label in enumerate(labels)}
    assignment = [int(i) for i in np.argmax(probs, axis=1)]
    for _ in range(max_passes):
        bad = _violations(assignment, triples, labels, algebra)
        if not bad:
            break
        i_ab, i_bc, i_ac = bad[0]
        # Candidate repairs: set ac to the entailed label, or flip ab/bc
        # to their next-best label; pick the least log-prob loss.
        entailed = algebra.compose(
            labels[assignment[i_ab]], labels[assignment[i_bc]]
        )
        candidates: list[tuple[float, int, int]] = []
        if entailed is not None and entailed in label_index:
            target = label_index[entailed]
            cost = (
                probs[i_ac, assignment[i_ac]] - probs[i_ac, target]
            )
            candidates.append((cost, i_ac, target))
        for pair_idx in (i_ab, i_bc):
            current = assignment[pair_idx]
            order = np.argsort(-probs[pair_idx])
            for alt in order:
                if int(alt) != current:
                    cost = probs[pair_idx, current] - probs[pair_idx, alt]
                    candidates.append((cost, pair_idx, int(alt)))
                    break
        if not candidates:
            break
        _cost, pair_idx, new_label = min(candidates)
        assignment[pair_idx] = new_label
    return [labels[i] for i in assignment]
