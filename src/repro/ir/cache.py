"""Epoch-stamped LRU query cache.

Entries are stamped with the store epochs at compute time and
validated against the *current* epochs on every lookup — a hit is only
served when no store has mutated since the entry was stored.  There is
no TTL and no explicit invalidation call to forget: correctness falls
out of the epoch comparison, and stale entries are evicted lazily on
the lookup that discovers them.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Hashable

from repro.exceptions import ReproError


class QueryCache:
    """Bounded LRU keyed by query, validated by store epochs.

    Args:
        capacity: maximum live entries (LRU eviction beyond it).
        epochs: callable returning the current store epochs (e.g.
            ``CreateIrIndexer.epochs``); entries stored under older
            epochs never hit.

    Example:
        >>> epochs = [0]
        >>> cache = QueryCache(2, lambda: tuple(epochs))
        >>> cache.put("q", [1, 2]); cache.get("q")
        [1, 2]
        >>> epochs[0] += 1  # a mutation lands
        >>> cache.get("q") is None
        True
    """

    def __init__(self, capacity: int, epochs: Callable[[], tuple]):
        if capacity < 1:
            raise ReproError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._epochs = epochs
        self._entries: OrderedDict[Hashable, tuple[tuple, Any]] = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.stale_drops = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> Any | None:
        """The cached value, or None on miss/stale (stale is dropped)."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        stamp, value = entry
        if stamp != self._epochs():
            del self._entries[key]
            self.stale_drops += 1
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def put(
        self, key: Hashable, value: Any, stamp: tuple | None = None
    ) -> None:
        """Store a value stamped with store epochs.

        Callers that compute ``value`` outside the cache (a search)
        pass the epochs they captured *before* computing, so a
        mutation racing the computation makes the entry stale-on-
        arrival instead of masking itself behind a fresh stamp.  With
        ``stamp=None`` the current epochs are used.
        """
        if stamp is None:
            stamp = self._epochs()
        self._entries[key] = (stamp, value)
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._entries.clear()

    def stats(self) -> dict:
        """Hit/miss/eviction counters for ``/stats``."""
        total = self.hits + self.misses
        return {
            "capacity": self.capacity,
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "stale_drops": self.stale_drops,
            "hit_rate": (self.hits / total) if total else 0.0,
        }
