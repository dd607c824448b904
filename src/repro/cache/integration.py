"""The cache layer of one FORM.

A :class:`FormCaches` instance owns the faceted query cache and the switch
a :class:`~repro.cache.config.CacheConfig` sets.  The FORM constructs one
at init time; the manager, web layer and benchmarks reach the cache
through it.  The cache holds no reference to the database: the manager
reads each entry's stamp from the database's
:class:`~repro.cache.bus.InvalidationBus` when it uses the entry.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.cache.config import CacheConfig
from repro.cache.lru import CacheStats
from repro.cache.query_cache import FacetedQueryCache


class FormCaches:
    """The query cache of one FORM."""

    def __init__(self, config: Optional[CacheConfig] = None) -> None:
        #: whether the FORM reads and fills the query cache at all
        self.enabled = (config if config is not None else CacheConfig()).enabled
        self.queries = FacetedQueryCache()
        # Export the cache's CacheStats through the observability registry
        # (weakly referenced: a FORM going away takes its cache's metrics
        # with it).
        from repro import obs

        obs.register_caches(self)

    # -- lifecycle ---------------------------------------------------------------------

    def clear(self) -> None:
        """Drop every cached entry."""
        self.queries.clear()

    # -- introspection ------------------------------------------------------------------

    def stats(self) -> Dict[str, Dict[str, Any]]:
        """Hit/miss/eviction statistics, by layer name."""
        return {
            "queries": self.queries.stats.snapshot(),
            # No label layer exists any more; the entry stays, always zero,
            # for readers that still report a "labels" layer.
            "labels": CacheStats().snapshot(),
        }

    def __repr__(self) -> str:
        return f"FormCaches(enabled={self.enabled}, queries={len(self.queries)})"
