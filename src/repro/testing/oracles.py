"""Brute-force reference implementations ("oracles").

Each oracle recomputes what an optimized subsystem computes, using the
most naive algorithm that is obviously correct:

* :class:`ReferenceSearchEngine` — linear-scan BM25 retrieval straight
  off the analyzed term lists (no inverted index, no postings, no
  cached statistics).
* :func:`bm25_scores_scalar` — BM25 accumulated one posting at a time
  in a dict, the reference for the vectorised ``BM25Scorer`` pass.
* :func:`brute_force_bindings` — exhaustive injective enumeration of
  pattern variable assignments, checking every pattern edge against
  the full edge list (no candidate pruning, no backtracking order).
* :func:`match_pattern_unplanned` — the pre-planner backtracking
  matcher (full candidate pools, edge-list scans), the faster
  mid-level reference for the planner.
* :func:`concept_candidates_scan` — graph search's per-concept
  candidates and label similarities, computed for every node of the
  type (no ``(type, label)`` bucket, no stem shared between calls).
* :func:`exhaustive_decode` — CRF Viterbi / partition function by
  enumerating every label path (pure-Python floats).
* :class:`DenseLinearChainCRF` / :func:`crf_fit_dense` — the CRF
  trainer as it was before its table was compacted: a dense
  ``(n_features, L)`` emission table and Adagrad accumulator, and
  forward-backward on ``scipy.special.logsumexp``.
* :func:`adam_step_reference` — ``LogisticRegression.step`` as the
  textbook expression, one temporary array per operation.
* :func:`kmeans_reference` — the embedder's k-means with k-means++
  seeding that recomputes every point's distance to every chosen
  centroid on each step; :func:`reference_training` trains a
  ``ClinicalExtractor`` with all three.
* :func:`reference_closure` — temporal transitive closure by repeated
  full relaxation over a dense pair map with immediate updates
  (Floyd–Warshall style), detecting contradictions.
* :func:`brute_force_map` — temporal global inference by enumerating
  every joint label assignment and keeping the rule-consistent ones.
* :func:`reference_fuse` — the Figure-6 fusion policy restated from
  its docstring contract.
* :func:`encode_record` — a whole WAL record framed from one
  ``json.dumps`` of the record dict, the reference for the commit that
  splices each op's bytes.

Oracles share only *input parsing* helpers with the production code
(analyzers, relation algebras); every indexed/optimized code path they
check is reimplemented independently.
"""

from __future__ import annotations

import itertools
import json
import math
import struct
import zlib
from contextlib import contextmanager
from typing import Any, Iterator, Sequence

import numpy as np
from scipy.special import logsumexp

import repro.ml.embeddings as embeddings_module
import repro.ner.tagger as tagger_module
from repro.exceptions import ModelError, NotFittedError
from repro.ml import infer
from repro.ml.logistic import LogisticRegression
from repro.search.analysis import (
    CREATE_IR_ANALYZER_CONFIG,
    STANDARD_ANALYZER_CONFIG,
    create_analyzer,
)
from repro.graphdb.graph import Node, PropertyGraph
from repro.graphdb.match import EdgePattern, GraphPattern
from repro.ir.ranking import label_similarity, labels_match
from repro.ir.searcher import ConceptCandidates
from repro.temporal.relations import RelationAlgebra

ANALYZER_CONFIGS = {
    "standard": STANDARD_ANALYZER_CONFIG,
    "whitespace": {"tokenizer": {"type": "whitespace"},
                   "filter": ["lowercase"], "char_filter": []},
    "ngram": CREATE_IR_ANALYZER_CONFIG,
}


# -- search ------------------------------------------------------------------


class ReferenceSearchEngine:
    """Linear-scan reference for :class:`repro.search.SearchEngine`.

    Mirrors the engine's one query (analysed text, BM25 over an OR of
    its terms) but holds only a dict of per-document analysed term
    lists — document statistics (df, avgdl, N) are recomputed from
    scratch at query time, so any stale incremental state in the
    optimized engine shows up as a score difference.
    """

    K1 = 1.2
    B = 0.75

    def __init__(self, analyzer_config: dict = CREATE_IR_ANALYZER_CONFIG):
        self._analyzer = create_analyzer(analyzer_config)
        self._docs: dict[Any, list[str]] = {}  # doc_id -> analysed terms

    def index(self, doc_id: Any, text: str) -> None:
        self._docs.pop(doc_id, None)
        self._docs[doc_id] = self._analyzer.terms(text)

    def delete(self, doc_id: Any) -> bool:
        return self._docs.pop(doc_id, None) is not None

    @property
    def n_documents(self) -> int:
        return len(self._docs)

    def search(self, text: str, size: int = 10) -> list[tuple[Any, float]]:
        """Ranked ``(doc_id, score)`` pairs, engine tie-break rules:
        BM25 accumulated over the query's terms by scanning every
        document."""
        n = len(self._docs)
        lengths = {doc_id: len(terms) for doc_id, terms in self._docs.items()}
        avg_len = (sum(lengths.values()) / n if n else 0.0) or 1.0
        scores: dict[Any, float] = {}
        for term in self._analyzer.terms(text):
            df = sum(1 for terms in self._docs.values() if term in terms)
            idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
            for doc_id, terms in self._docs.items():
                tf = terms.count(term)
                if tf == 0:
                    continue
                denom = tf + self.K1 * (
                    1.0 - self.B + self.B * lengths[doc_id] / avg_len
                )
                contribution = idf * tf * (self.K1 + 1.0) / denom
                scores[doc_id] = scores.get(doc_id, 0.0) + contribution
        ranked = sorted(
            scores.items(), key=lambda item: (-item[1], str(item[0]))
        )
        return ranked[:size]


def bm25_scores_scalar(
    index, terms: Sequence[str], k1: float = 1.2, b: float = 0.75
) -> dict[int, float]:
    """BM25 per doc ordinal over an :class:`InvertedIndex`, one posting
    at a time through ``postings()`` / ``doc_length()``: the scalar loop
    ``BM25Scorer.score_terms`` must equal float for float."""
    scores: dict[int, float] = {}
    n = index.n_documents
    avg_len = index.average_length or 1.0
    for term in terms:
        df = index.document_frequency(term)
        idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        for doc_ord, tf in index.postings(term):
            doc_len = index.doc_length(doc_ord)
            denom = tf + k1 * (1.0 - b + b * doc_len / avg_len)
            contribution = idf * tf * (k1 + 1.0) / denom
            scores[doc_ord] = scores.get(doc_ord, 0.0) + contribution
    return scores


# -- graph -------------------------------------------------------------------


def brute_force_bindings(
    graph: PropertyGraph, pattern: GraphPattern
) -> list[dict[str, Any]]:
    """All injective variable bindings, by exhaustive enumeration.

    Returns bindings as ``{var: node_id}`` dicts (node *ids*, so results
    compare structurally).

    This is the bottom-level oracle for both the ``graph`` and
    ``planner`` fuzz subsystems: it never consults cardinality
    statistics or adjacency indexes, so a planner bug cannot leak into
    the expected answer.  (``match_pattern_unplanned`` is the faster
    mid-level reference, itself checked against this.)
    """
    pattern.validate()
    if not pattern.nodes:
        return []
    nodes = sorted(graph.nodes(), key=lambda n: n.node_id)
    variables = [p.var for p in pattern.nodes]
    all_edges = list(graph.edges())
    out = []
    for combo in itertools.permutations(nodes, len(variables)):
        binding = dict(zip(variables, combo))
        if not all(
            node_pattern.admits(binding[node_pattern.var])
            for node_pattern in pattern.nodes
        ):
            continue
        ok = True
        for ep in pattern.edges:
            src = binding[ep.source].node_id
            dst = binding[ep.target].node_id
            found = False
            for edge in all_edges:
                if ep.label is not None and edge.label != ep.label:
                    continue
                if edge.source == src and edge.target == dst:
                    found = True
                    break
                if not ep.directed and (
                    edge.source == dst and edge.target == src
                ):
                    found = True
                    break
            if not found:
                ok = False
                break
        if ok:
            out.append({var: node.node_id for var, node in binding.items()})
    return out


def match_pattern_unplanned(
    graph: PropertyGraph,
    pattern: GraphPattern,
    limit: int | None = None,
) -> list[dict[str, Node]]:
    """The pre-planner matcher, kept verbatim as a mid-level reference.

    Materializes every variable's full candidate pool and backtracks
    most-constrained-variable first, checking pattern edges by
    scanning the source node's complete edge list.  Same binding set
    as :func:`repro.graphdb.match.match_pattern`; used by
    ``bench_graph_match`` as the speedup baseline and by the fuzz
    harness as a second oracle (itself checked against
    :func:`brute_force_bindings`).
    """
    pattern.validate()
    if not pattern.nodes:
        return []

    candidates: dict[str, list[Node]] = {}
    for node_pattern in pattern.nodes:
        exact = dict(node_pattern.properties)
        pool = graph.find_nodes(**exact) if exact else sorted(
            graph.nodes(), key=lambda n: n.node_id
        )
        if node_pattern.predicate is not None:
            pool = [node for node in pool if node_pattern.predicate(node)]
        candidates[node_pattern.var] = pool
        if not pool:
            return []

    # Most-constrained variable first keeps the search shallow.
    order = sorted(pattern.nodes, key=lambda p: len(candidates[p.var]))
    edges_by_vars: dict[frozenset[str], list[EdgePattern]] = {}
    for edge in pattern.edges:
        edges_by_vars.setdefault(
            frozenset((edge.source, edge.target)), []
        ).append(edge)

    results: list[dict[str, Node]] = []

    def consistent(
        binding: dict[str, Node], var: str, node: Node
    ) -> bool:
        if any(bound.node_id == node.node_id for bound in binding.values()):
            return False  # injective matching, as in cypher MATCH
        # Self-loop patterns (source var == target var) constrain the
        # candidate itself, not a previously bound variable.
        for edge in edges_by_vars.get(frozenset((var,)), ()):
            if not _edge_satisfied(graph, edge, var, node, var, node):
                return False
        for other_var, other_node in binding.items():
            for edge in edges_by_vars.get(frozenset((var, other_var)), ()):
                if not _edge_satisfied(graph, edge, var, node, other_var, other_node):
                    return False
        return True

    def backtrack(depth: int, binding: dict[str, Node]) -> bool:
        """Returns True when the limit has been reached."""
        if depth == len(order):
            results.append(dict(binding))
            return limit is not None and len(results) >= limit
        node_pattern = order[depth]
        for node in candidates[node_pattern.var]:
            if consistent(binding, node_pattern.var, node):
                binding[node_pattern.var] = node
                if backtrack(depth + 1, binding):
                    return True
                del binding[node_pattern.var]
        return False

    backtrack(0, {})
    return results


def concept_candidates_scan(graph, normalizer, concept) -> ConceptCandidates:
    """Graph search's per-concept candidates by the plain scan:
    :func:`labels_match` and :func:`label_similarity` on every node of
    the concept's type, with nothing shared between nodes of the same
    label and no bucket consulted.  Same dict, same per-document node
    order and same similarity table as
    :func:`repro.ir.searcher.concept_candidates`."""
    query_concept_id = None
    if normalizer is not None:
        normalized = normalizer.normalize(concept.surface)
        if normalized is not None:
            query_concept_id = normalized.concept_id
    candidates: dict[str, list] = {}
    similarity: dict[str, float] = {}
    for node in graph.find_nodes(entityType=concept.entity_type):
        node_label = str(node.get("label", ""))
        similarity[node_label] = label_similarity(concept.surface, node_label)
        if node.get("negated"):
            continue
        concept_hit = (
            query_concept_id is not None
            and node.get("conceptId") == query_concept_id
        )
        if concept_hit or labels_match(concept.surface, node_label):
            doc_id = str(node.get("doc_id", ""))
            candidates.setdefault(doc_id, []).append(node)
    return ConceptCandidates(candidates, similarity)


def _edge_satisfied(
    graph: PropertyGraph,
    edge: EdgePattern,
    var: str,
    node: Node,
    other_var: str,
    other_node: Node,
) -> bool:
    if edge.source == var:
        src, dst = node, other_node
    else:
        src, dst = other_node, node
    forward = any(
        e.target == dst.node_id and edge.admits(e)
        for e in graph.out_edges(src.node_id)
    )
    if forward:
        return True
    if not edge.directed:
        return any(
            e.target == src.node_id and edge.admits(e)
            for e in graph.out_edges(dst.node_id)
        )
    return False


# -- crf ---------------------------------------------------------------------


def exhaustive_decode(
    emissions: Sequence[Sequence[float]],
    transitions: Sequence[Sequence[float]],
    start: Sequence[float],
    end: Sequence[float],
) -> tuple[float, tuple[int, ...], float]:
    """(best score, one best path, log partition) over *all* paths."""
    n_steps = len(emissions)
    n_labels = len(start)
    if n_steps == 0:
        return 0.0, (), 0.0
    best_score = -math.inf
    best_path: tuple[int, ...] = ()
    log_terms = []
    for path in itertools.product(range(n_labels), repeat=n_steps):
        score = start[path[0]] + emissions[0][path[0]]
        for t in range(1, n_steps):
            score += (
                transitions[path[t - 1]][path[t]] + emissions[t][path[t]]
            )
        score += end[path[-1]]
        log_terms.append(score)
        if score > best_score:
            best_score = score
            best_path = path
    peak = max(log_terms)
    log_z = peak + math.log(
        sum(math.exp(term - peak) for term in log_terms)
    )
    return best_score, best_path, log_z


def scipy_has_the_ported_logsumexp() -> bool:
    """Whether the installed scipy's ``logsumexp`` is the arithmetic
    :func:`repro.ml.infer._logsumexp` ports (scipy 1.17's: ``log1p`` of
    the terms below the maximum), so that the references below train
    bit for bit like production.  Older releases take ``log`` of the
    whole sum, which rounds ``1 + exp(-40)`` to 1 and answers 0.0."""
    return float(logsumexp(np.array([0.0, -40.0]))) > 0.0


def _forward_log_scipy(emissions, transitions, start, end):
    n_steps, n_labels = emissions.shape
    alpha = np.empty((n_steps, n_labels))
    alpha[0] = start + emissions[0]
    for t in range(1, n_steps):
        alpha[t] = (
            logsumexp(alpha[t - 1][:, None] + transitions, axis=0)
            + emissions[t]
        )
    log_z = float(logsumexp(alpha[-1] + end))
    return alpha, log_z


def _backward_log_scipy(emissions, transitions, end):
    n_steps, n_labels = emissions.shape
    beta = np.empty((n_steps, n_labels))
    beta[-1] = end
    for t in range(n_steps - 2, -1, -1):
        beta[t] = logsumexp(
            transitions + (emissions[t + 1] + beta[t + 1])[None, :], axis=1
        )
    return beta


def _marginals_scipy(emissions, transitions, start, end):
    n_steps, n_labels = emissions.shape
    alpha, log_z = _forward_log_scipy(emissions, transitions, start, end)
    beta = _backward_log_scipy(emissions, transitions, end)
    unary = np.exp(alpha + beta - log_z)
    pairwise = np.empty((max(n_steps - 1, 0), n_labels, n_labels))
    for t in range(n_steps - 1):
        joint = (
            alpha[t][:, None]
            + transitions
            + (emissions[t + 1] + beta[t + 1])[None, :]
            - log_z
        )
        pairwise[t] = np.exp(joint)
    return unary, pairwise, log_z


class DenseLinearChainCRF:
    """The CRF before compaction: ``_emit`` has a row for every hashed
    index, whether training saw it or not, and each token's emission is
    ``_emit[indices].sum(axis=0)``.  Same constructor, ``fit`` and
    ``predict`` as :class:`repro.ml.crf.LinearChainCRF`."""

    def __init__(
        self,
        n_features: int = 1 << 18,
        epochs: int = 8,
        learning_rate: float = 0.2,
        l2: float = 1e-6,
        seed: int = 13,
    ):
        self.n_features = n_features
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.l2 = l2
        self.seed = seed
        self.labels: list[str] = []
        self._label_index: dict[str, int] = {}
        self._emit: np.ndarray | None = None  # (n_features, L)
        self._trans: np.ndarray | None = None  # (L, L)
        self._start: np.ndarray | None = None
        self._end: np.ndarray | None = None

    def fit(self, sequences, label_sequences) -> "DenseLinearChainCRF":
        if len(sequences) != len(label_sequences):
            raise ModelError("sequences/labels count mismatch")
        self._init_parameters(label_sequences)
        encoded = [
            np.asarray([self._label_index[y] for y in ys], dtype=np.int64)
            for ys in label_sequences
        ]
        rng = np.random.default_rng(self.seed)
        order = np.arange(len(sequences))
        # Adagrad accumulators.
        acc_emit = np.full((self.n_features, len(self.labels)), 1e-8)
        acc_trans = np.full_like(self._trans, 1e-8)
        acc_start = np.full_like(self._start, 1e-8)
        acc_end = np.full_like(self._end, 1e-8)

        for _ in range(self.epochs):
            rng.shuffle(order)
            for i in order:
                feats, gold = sequences[i], encoded[i]
                if len(gold) == 0:
                    continue
                self._update_one(
                    feats, gold, acc_emit, acc_trans, acc_start, acc_end
                )
        return self

    def predict(self, feats) -> list[str]:
        if self._emit is None:
            raise NotFittedError("DenseLinearChainCRF used before fit()")
        if len(feats) == 0:
            return []
        emissions = self._emissions(feats)
        path, _score = infer.viterbi(
            emissions, self._trans, self._start, self._end
        )
        return [self.labels[y] for y in path]

    def _init_parameters(self, label_sequences) -> None:
        inventory = sorted({y for ys in label_sequences for y in ys})
        if not inventory:
            raise ModelError("no labels in training data")
        self.labels = inventory
        self._label_index = {y: i for i, y in enumerate(inventory)}
        n_labels = len(inventory)
        self._emit = np.zeros((self.n_features, n_labels))
        self._trans = np.zeros((n_labels, n_labels))
        self._start = np.zeros(n_labels)
        self._end = np.zeros(n_labels)

    def _emissions(self, feats) -> np.ndarray:
        emissions = np.empty((len(feats), len(self.labels)))
        for t, indices in enumerate(feats):
            if len(indices):
                emissions[t] = self._emit[indices].sum(axis=0)
            else:
                emissions[t] = 0.0
        return emissions

    def _update_one(
        self, feats, gold, acc_emit, acc_trans, acc_start, acc_end
    ) -> None:
        emissions = self._emissions(feats)
        unary, pairwise, _ = _marginals_scipy(
            emissions, self._trans, self._start, self._end
        )

        n_labels = len(self.labels)
        lr = self.learning_rate

        # Emission gradient per token: expected (unary) minus empirical.
        for t, indices in enumerate(feats):
            if len(indices) == 0:
                continue
            grad_row = unary[t].copy()
            grad_row[gold[t]] -= 1.0
            grad_row += self.l2 * self._emit[indices].mean(axis=0)
            acc_emit[indices] += grad_row**2
            self._emit[indices] -= (
                lr * grad_row / np.sqrt(acc_emit[indices])
            )

        # Transition gradient.
        grad_trans = pairwise.sum(axis=0) if len(gold) > 1 else np.zeros(
            (n_labels, n_labels)
        )
        for t in range(len(gold) - 1):
            grad_trans[gold[t], gold[t + 1]] -= 1.0
        grad_trans += self.l2 * self._trans
        acc_trans += grad_trans**2
        self._trans -= lr * grad_trans / np.sqrt(acc_trans)

        # Start / end gradients.
        grad_start = unary[0].copy()
        grad_start[gold[0]] -= 1.0
        acc_start += grad_start**2
        self._start -= lr * grad_start / np.sqrt(acc_start)

        grad_end = unary[-1].copy()
        grad_end[gold[-1]] -= 1.0
        acc_end += grad_end**2
        self._end -= lr * grad_end / np.sqrt(acc_end)


def crf_fit_dense(
    sequences, label_sequences, **params
) -> DenseLinearChainCRF:
    """A :class:`DenseLinearChainCRF` fitted with ``params``."""
    return DenseLinearChainCRF(**params).fit(sequences, label_sequences)


# -- training ----------------------------------------------------------------


def adam_step_reference(
    model: LogisticRegression, grad_w: np.ndarray, grad_b: np.ndarray
) -> None:
    """One Adam update of ``model``, a new array per operation."""
    model._t += 1
    model._m_w = model.beta1 * model._m_w + (1 - model.beta1) * grad_w
    model._v_w = model.beta2 * model._v_w + (1 - model.beta2) * grad_w**2
    model._m_b = model.beta1 * model._m_b + (1 - model.beta1) * grad_b
    model._v_b = model.beta2 * model._v_b + (1 - model.beta2) * grad_b**2
    m_w_hat = model._m_w / (1 - model.beta1**model._t)
    v_w_hat = model._v_w / (1 - model.beta2**model._t)
    m_b_hat = model._m_b / (1 - model.beta1**model._t)
    v_b_hat = model._v_b / (1 - model.beta2**model._t)
    model.weights -= (
        model.learning_rate * m_w_hat / (np.sqrt(v_w_hat) + model.epsilon)
    )
    model.bias -= (
        model.learning_rate * m_b_hat / (np.sqrt(v_b_hat) + model.epsilon)
    )
    model._fitted = True


def kmeans_reference(
    vectors: np.ndarray, k: int, seed: int, n_iterations: int = 12
) -> np.ndarray:
    """Lloyd's k-means with k-means++ style seeding; returns centroids.

    Each seeding step stacks every point's distance to every centroid
    chosen so far and takes the minimum: O(k^2 n) where the production
    ``_kmeans`` keeps a running minimum.
    """
    n = len(vectors)
    if n == 0:
        return np.zeros((0, vectors.shape[1] if vectors.ndim == 2 else 1))
    k = min(k, n)
    rng = np.random.default_rng(seed)

    centroids = [vectors[int(rng.integers(0, n))]]
    for _ in range(1, k):
        distances = np.min(
            np.stack(
                [np.sum((vectors - c) ** 2, axis=1) for c in centroids]
            ),
            axis=0,
        )
        total = distances.sum()
        if total <= 0:
            centroids.append(vectors[int(rng.integers(0, n))])
            continue
        probabilities = distances / total
        centroids.append(vectors[int(rng.choice(n, p=probabilities))])
    centers = np.stack(centroids)

    for _ in range(n_iterations):
        distances = (
            np.sum(vectors**2, axis=1, keepdims=True)
            - 2.0 * vectors @ centers.T
            + np.sum(centers**2, axis=1)[None, :]
        )
        assignment = np.argmin(distances, axis=1)
        new_centers = centers.copy()
        for j in range(k):
            members = vectors[assignment == j]
            if len(members):
                new_centers[j] = members.mean(axis=0)
        if np.allclose(new_centers, centers):
            break
        centers = new_centers
    return centers


@contextmanager
def reference_training() -> Iterator[None]:
    """Within the block, ``ClinicalExtractor.train`` fits the NER tagger
    with :class:`DenseLinearChainCRF`, steps the temporal model with
    :func:`adam_step_reference` and clusters the embedder's vectors
    with :func:`kmeans_reference`; all three are restored on exit."""
    crf_class = tagger_module.LinearChainCRF
    step = LogisticRegression.step
    kmeans = embeddings_module._kmeans
    tagger_module.LinearChainCRF = DenseLinearChainCRF
    LogisticRegression.step = adam_step_reference
    embeddings_module._kmeans = kmeans_reference
    try:
        yield
    finally:
        tagger_module.LinearChainCRF = crf_class
        LogisticRegression.step = step
        embeddings_module._kmeans = kmeans


# -- temporal ----------------------------------------------------------------


def reference_closure(
    edges: Sequence[Sequence[str]], algebra: RelationAlgebra
) -> tuple[str, Any]:
    """Closure by repeated full relaxation with immediate updates.

    Returns ``("ok", {(a, b): label})`` over canonical (``a < b``)
    pairs, or ``("inconsistent", reason)``.
    """
    relations: dict[tuple[str, str], str] = {}

    def put(a: str, b: str, label: str) -> str | None:
        for key, value in (
            ((a, b), label),
            ((b, a), algebra.inverse(label)),
        ):
            old = relations.get(key)
            if old is not None and old != value:
                return f"{key}: {old} vs {value}"
            relations[key] = value
        return None

    for a, b, label in edges:
        conflict = put(a, b, label)
        if conflict is not None:
            return ("inconsistent", conflict)

    events = sorted({event for pair in relations for event in pair})
    changed = True
    while changed:
        changed = False
        for a in events:
            for b in events:
                if a == b:
                    continue
                r1 = relations.get((a, b))
                if r1 is None:
                    continue
                for c in events:
                    if c == a or c == b:
                        continue
                    r2 = relations.get((b, c))
                    if r2 is None:
                        continue
                    entailed = algebra.compose(r1, r2)
                    if entailed is None:
                        continue
                    old = relations.get((a, c))
                    if old is None:
                        conflict = put(a, c, entailed)
                        if conflict is not None:
                            return ("inconsistent", conflict)
                        changed = True
                    elif old != entailed:
                        return (
                            "inconsistent",
                            f"({a},{c}): {old} vs {entailed}",
                        )
    return (
        "ok",
        {key: label for key, label in relations.items() if key[0] < key[1]},
    )


def brute_force_map(
    pairs: Sequence[Sequence[str]],
    probs: Sequence[Sequence[float]],
    labels: Sequence[str],
    algebra: RelationAlgebra,
    tolerance: float = 1e-9,
) -> tuple[float, list[tuple[str, ...]]]:
    """MAP relation labels under transitivity, by enumeration.

    ``pairs[i] = (source, target)`` owns row ``i`` of ``probs``.  Every
    assignment of one label per pair is scored Σ log max(p, 1e-12); one
    is consistent when, for all pairs (a,b), (b,c), (a,c) present with
    c ≠ a, a composition of the first two labels that is itself one of
    ``labels`` equals the third.  Returns the best score and every
    consistent assignment within ``tolerance`` of it (more than one
    only on ties).
    """
    index = {(source, target): i for i, (source, target) in enumerate(pairs)}
    groundings = [
        (i_ab, i_bc, index[(a, c)])
        for (a, b), i_ab in index.items()
        for (b2, c), i_bc in index.items()
        if b2 == b and c != a and (a, c) in index
    ]
    log_probs = [[math.log(max(p, 1e-12)) for p in row] for row in probs]
    scored = []
    for assignment in itertools.product(range(len(labels)), repeat=len(pairs)):
        chosen = [labels[k] for k in assignment]
        consistent = True
        for i_ab, i_bc, i_ac in groundings:
            entailed = algebra.compose(chosen[i_ab], chosen[i_bc])
            if (
                entailed is not None
                and entailed in labels
                and chosen[i_ac] != entailed
            ):
                consistent = False
                break
        if consistent:
            score = sum(log_probs[i][k] for i, k in enumerate(assignment))
            scored.append((score, tuple(chosen)))
    best = max(score for score, _ in scored)
    return best, [
        chosen for score, chosen in scored if score >= best - tolerance
    ]


# -- fusion ------------------------------------------------------------------


def reference_fuse(
    graph_ranked: Sequence[Sequence[Any]],
    keyword_ranked: Sequence[Sequence[Any]],
    size: int,
) -> list[tuple[str, float, str]]:
    """The documented Figure-6 contract, restated independently."""
    out: list[tuple[str, float, str]] = []
    seen = set()
    for engine, ranked in (
        ("graph", graph_ranked),
        ("keyword", keyword_ranked),
    ):
        for doc_id, score in sorted(
            ranked, key=lambda item: (-item[1], str(item[0]))
        ):
            if len(out) >= size:
                return out
            if doc_id in seen:
                continue
            seen.add(doc_id)
            out.append((doc_id, score, engine))
    return out[:size]


# -- durability --------------------------------------------------------------


def encode_record(record: dict) -> bytes:
    """One WAL frame — ``b"WALR"``, u32be length, u32be crc32, payload —
    with the payload from a single ``json.dumps`` of the whole record
    (keys sorted, no whitespace, UTF-8)."""
    payload = json.dumps(
        record, sort_keys=True, ensure_ascii=False, separators=(",", ":")
    ).encode("utf-8")
    header = struct.pack(">4sII", b"WALR", len(payload), zlib.crc32(payload))
    return header + payload
