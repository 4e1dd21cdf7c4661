"""Ranking utilities: fuzzy label similarity and result fusion.

Graph-match scoring needs a soft notion of "this node's label matches
this query concept" (case reports phrase the same symptom variably):
:func:`score_label` defines it once, over a query surface and a node
label whose stems the caller already holds, and
:func:`label_similarity` / :func:`labels_match` are its two halves for
callers holding two plain strings.  Graph search takes a label's stems
from :func:`label_stems`, a bounded per-process memo: labels are index
data, the same on every query.  Fusion
implements the Figure 6 policy — graph results on top, keyword results
after, deduplicated.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from repro.text.stem import stem
from repro.text.tokenize import tokenize

# Stemmed-token Jaccard at or above which a node label matches a query
# concept surface.
MATCH_THRESHOLD = 0.5


def stem_tokens(text: str) -> frozenset[str]:
    """The stemmed, lower-cased alphanumeric tokens of ``text``: the
    set both sides of :func:`score_label` compare."""
    return frozenset(
        stem(token.lower)
        for token in tokenize(text)
        if any(ch.isalnum() for ch in token.text)
    )


@lru_cache(maxsize=1 << 16)
def label_stems(label: str) -> frozenset[str]:
    """:func:`stem_tokens` of an indexed node label, memoised per
    process (same bound as :mod:`repro.text.stem`).

    Only graph search's per-label pass reads it, so the memo holds
    index labels and never a query surface.
    """
    return stem_tokens(label)


def score_label(
    query_surface: str,
    query_stems: frozenset[str],
    node_label: str,
    node_stems: frozenset[str],
) -> tuple[float, bool]:
    """``(similarity, matches)`` of a node label against a query
    surface, given the :func:`stem_tokens` of both.

    The one definition of the rule: ``similarity`` is the stemmed-token
    Jaccard in [0, 1]; ``matches`` holds when it reaches
    :data:`MATCH_THRESHOLD` or, for surfaces of four characters or
    more, when one surface contains the other (head-word queries:
    "cough" vs "a mild cough"; shorter ones like "was" would otherwise
    match almost anything).  Graph search stems a query concept once
    and calls this once per distinct label.
    """
    if query_stems and node_stems:
        similarity = len(query_stems & node_stems) / len(
            query_stems | node_stems
        )
    else:
        similarity = 0.0
    if similarity >= MATCH_THRESHOLD:
        return similarity, True
    a = query_surface.lower().strip()
    b_text = node_label.lower().strip()
    if min(len(a), len(b_text)) < 4:
        return similarity, False
    return similarity, a in b_text or b_text in a


def label_similarity(query_surface: str, node_label: str) -> float:
    """Stemmed-token Jaccard similarity between two surfaces in [0, 1]
    (:func:`score_label`'s first half).

    Example:
        >>> label_similarity("fevers", "fever") > 0.9
        True
    """
    return score_label(
        query_surface,
        stem_tokens(query_surface),
        node_label,
        stem_tokens(node_label),
    )[0]


def labels_match(query_surface: str, node_label: str) -> bool:
    """Soft match decision (:func:`score_label`'s second half)."""
    return score_label(
        query_surface,
        stem_tokens(query_surface),
        node_label,
        stem_tokens(node_label),
    )[1]


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
