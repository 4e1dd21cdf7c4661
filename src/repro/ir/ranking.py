"""Ranking utilities: fuzzy label similarity and result fusion.

Graph-match scoring needs a soft notion of "this node's label matches
this query concept" (case reports phrase the same symptom variably);
fusion implements the Figure 6 policy — graph results on top, keyword
results after, deduplicated.
"""

from __future__ import annotations

from typing import Sequence

from repro.text.stem import stem
from repro.text.tokenize import tokenize

# Stemmed-token Jaccard at or above which a node label matches a query
# concept surface.
MATCH_THRESHOLD = 0.5


def _stem_tokens(text: str) -> frozenset[str]:
    return frozenset(
        stem(token.lower)
        for token in tokenize(text)
        if any(ch.isalnum() for ch in token.text)
    )


def label_similarity(query_surface: str, node_label: str) -> float:
    """Stemmed-token Jaccard similarity between two surfaces in [0, 1].

    Example:
        >>> label_similarity("fevers", "fever") > 0.9
        True
    """
    a = _stem_tokens(query_surface)
    b = _stem_tokens(node_label)
    if not a or not b:
        return 0.0
    return len(a & b) / len(a | b)


def labels_match(query_surface: str, node_label: str) -> bool:
    """Soft match decision used by graph search node predicates."""
    if label_similarity(query_surface, node_label) >= MATCH_THRESHOLD:
        return True
    # Substring containment handles head-word queries ("cough" vs
    # "a mild cough"); very short surfaces are excluded because tokens
    # like "was" would otherwise match almost anything.
    a = query_surface.lower().strip()
    b = node_label.lower().strip()
    if min(len(a), len(b)) < 4:
        return False
    return a in b or b in a


def fuse_results(
    graph_ranked: Sequence[tuple[str, float]],
    keyword_ranked: Sequence[tuple[str, float]],
    size: int,
) -> list[tuple[str, float, str]]:
    """Figure 6 fusion: graph hits first, then unseen keyword hits.

    Returns ``(doc_id, score, engine)`` triples, at most ``size``.
    Scores are kept in their native scales; ordering within each block
    is by score descending (ties broken by doc id for determinism).
    """
    out: list[tuple[str, float, str]] = []
    seen: set[str] = set()
    for doc_id, score in sorted(
        graph_ranked, key=lambda item: (-item[1], str(item[0]))
    ):
        if len(out) >= size:
            return out
        if doc_id not in seen:
            seen.add(doc_id)
            out.append((doc_id, score, "graph"))
    for doc_id, score in sorted(
        keyword_ranked, key=lambda item: (-item[1], str(item[0]))
    ):
        if len(out) >= size:
            break
        if doc_id not in seen:
            seen.add(doc_id)
            out.append((doc_id, score, "keyword"))
    return out
