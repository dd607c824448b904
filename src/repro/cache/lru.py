"""A generic LRU cache with a size bound, stamped entries and statistics.

The faceted query cache (:mod:`repro.cache.query_cache`) and the template
parse cache are built on this one primitive.  Entries are evicted in
least-recently-used order once ``max_entries`` is reached.

An entry is stored beside a *stamp* and answers only a lookup under an
equal stamp -- the one staleness rule of the cache subsystem (stamps come
from :class:`~repro.cache.bus.InvalidationBus`).  A lookup under another
stamp is a miss; the stale entry stays until a put overwrites it, an
eviction or a clear.  Callers that need no staleness rule leave the stamp
at its default.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable, Tuple

#: Sentinel distinguishing "missing" from cached falsy values (False, None).
MISSING = object()


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one cache."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def snapshot(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "hit_rate": self.hit_rate,
        }

    def reset(self) -> None:
        self.hits = self.misses = self.puts = 0
        self.evictions = self.invalidations = 0


class LRUCache:
    """A thread-safe bounded mapping with LRU eviction and stamped entries.

    ``max_entries`` (at least 1) bounds the number of entries.
    """

    def __init__(self, max_entries: int) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self.max_entries = max_entries
        self._entries: "OrderedDict[Hashable, Tuple[Any, Hashable]]" = OrderedDict()
        self._lock = threading.RLock()
        self.stats = CacheStats()

    # -- core mapping operations ---------------------------------------------------

    def get(self, key: Hashable, default: Any = None, stamp: Hashable = None) -> Any:
        """The value stored under ``key`` and ``stamp``, or ``default``;
        refreshes LRU recency on a hit."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry[1] != stamp:
                self.stats.misses += 1
                return default
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry[0]

    def lookup(self, key: Hashable, stamp: Hashable = None) -> Any:
        """Like :meth:`get` but returns :data:`MISSING` on a miss, so falsy
        values (``False``, ``None``) can be cached unambiguously."""
        return self.get(key, MISSING, stamp)

    def put(self, key: Hashable, value: Any, stamp: Hashable = None) -> None:
        """Insert or overwrite an entry, evicting the LRU tail if needed."""
        with self._lock:
            if key in self._entries:
                del self._entries[key]
            self._entries[key] = (value, stamp)
            self.stats.puts += 1
            if len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def clear(self) -> int:
        """Invalidate everything; returns the number of entries dropped."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self.stats.invalidations += dropped
            return dropped

    # -- introspection -------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def __repr__(self) -> str:
        return (
            f"LRUCache(entries={len(self._entries)}, max={self.max_entries}, "
            f"hit_rate={self.stats.hit_rate:.2f})"
        )
