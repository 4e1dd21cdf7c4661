"""Temporal graphs: the structure behind Figure 5.

A :class:`TemporalGraph` stores labeled temporal relations between
event ids, normalizes directionality through the algebra's inverses,
computes the transitive closure to a fixpoint, and detects
inconsistencies (contradictory labels for one pair).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import TemporalInconsistencyError
from repro.temporal.relations import RelationAlgebra, THREE_WAY_ALGEBRA


@dataclass
class TemporalGraph:
    """Pairwise temporal relations with closure and consistency checks."""

    algebra: RelationAlgebra = field(default_factory=lambda: THREE_WAY_ALGEBRA)
    # canonical storage: relations[(a, b)] = label with a < b lexically
    _relations: dict[tuple[str, str], str] = field(default_factory=dict)
    _explicit: set[tuple[str, str]] = field(default_factory=set)

    # -- construction -------------------------------------------------------

    def add(self, source: str, target: str, label: str) -> None:
        """Record ``label(source, target)``.

        Raises:
            TemporalInconsistencyError: the pair already carries a
                different label.
            ValueError: unknown label or self-loop.
        """
        self._check_label(label)
        if source == target:
            raise ValueError("temporal relation endpoints must differ")
        key, stored = self._canonicalize(source, target, label)
        existing = self._relations.get(key)
        if existing is not None and existing != stored:
            raise TemporalInconsistencyError(
                f"pair {key} already {existing}, cannot also be {stored}"
            )
        self._relations[key] = stored
        self._explicit.add(key)

    # -- queries --------------------------------------------------------------

    def relation(self, source: str, target: str) -> str | None:
        """The stored relation for a pair (direction-adjusted), or None."""
        key, flip = self._key(source, target)
        stored = self._relations.get(key)
        if stored is None:
            return None
        return self.algebra.inverse(stored) if flip else stored

    def events(self) -> list[str]:
        """All event ids appearing in any relation."""
        seen = set()
        for a, b in self._relations:
            seen.add(a)
            seen.add(b)
        return sorted(seen)

    @property
    def n_relations(self) -> int:
        return len(self._relations)

    @property
    def n_explicit(self) -> int:
        return len(self._explicit)

    @property
    def n_inferred(self) -> int:
        return len(self._relations) - len(self._explicit)

    def edges(self) -> list[tuple[str, str, str]]:
        """All (source, target, label) triples in canonical direction."""
        return [
            (a, b, label)
            for (a, b), label in sorted(self._relations.items())
        ]

    # -- closure ----------------------------------------------------------------

    def close(self, max_rounds: int = 50) -> int:
        """Transitive closure to a fixpoint; returns #inferred relations.

        Applies every composition rule over every connected triple
        until no new relation appears.

        Raises:
            TemporalInconsistencyError: closure derives a label that
                contradicts a stored one.
        """
        inferred_total = 0
        for _round in range(max_rounds):
            new_relations: dict[tuple[str, str], str] = {}
            # This round's stored relations seen from both endpoints,
            # events and neighbours in sorted order: the walk visits the
            # same (a, b, c) chains in the same order as a scan of every
            # ordered event pair, touching only pairs that are related.
            directed = []
            for (a, b), label in self._relations.items():
                directed.append((a, b, label))
                directed.append((b, a, self.algebra.inverse(label)))
            adjacency: dict[str, dict[str, str]] = {}
            for a, b, label in sorted(directed):
                adjacency.setdefault(a, {})[b] = label
            for a, from_a in adjacency.items():
                for b, r1 in from_a.items():
                    for c, r2 in adjacency[b].items():
                        if c == a:
                            continue
                        entailed = self.algebra.compose(r1, r2)
                        if entailed is None:
                            continue
                        existing = from_a.get(c)
                        if existing is None:
                            key, stored = self._canonicalize(a, c, entailed)
                            prior = new_relations.get(key)
                            if prior is not None and prior != stored:
                                raise TemporalInconsistencyError(
                                    f"closure conflict on {key}: "
                                    f"{prior} vs {stored}"
                                )
                            new_relations[key] = stored
                        elif existing != entailed:
                            raise TemporalInconsistencyError(
                                f"closure derives {entailed}({a},{c}) but "
                                f"graph holds {existing}"
                            )
            if not new_relations:
                break
            self._relations.update(new_relations)
            inferred_total += len(new_relations)
        return inferred_total

    def is_consistent(self) -> bool:
        """True when closure succeeds without contradictions."""
        probe = TemporalGraph(algebra=self.algebra)
        probe._relations = dict(self._relations)
        probe._explicit = set(self._explicit)
        try:
            probe.close()
        except TemporalInconsistencyError:
            return False
        return True

    # -- internals -----------------------------------------------------------------

    def _check_label(self, label: str) -> None:
        if label not in self.algebra.labels:
            raise ValueError(
                f"unknown relation {label!r} for this algebra"
            )

    def _key(self, source: str, target: str) -> tuple[tuple[str, str], bool]:
        if source <= target:
            return (source, target), False
        return (target, source), True

    def _canonicalize(
        self, source: str, target: str, label: str
    ) -> tuple[tuple[str, str], str]:
        key, flip = self._key(source, target)
        return key, (self.algebra.inverse(label) if flip else label)
