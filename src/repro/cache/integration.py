"""The cache layers of one FORM.

A :class:`FormCaches` instance owns the two cache layers and the switch a
:class:`~repro.cache.config.CacheConfig` sets.  The FORM constructs one at
init time; the manager, web layer and benchmarks reach the layers through
it.  The layers hold no reference to the database: the manager reads each
entry's stamp from the database's :class:`~repro.cache.bus.InvalidationBus`
when it uses the entry.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.cache.config import CacheConfig
from repro.cache.label_cache import LabelResolutionCache
from repro.cache.query_cache import FacetedQueryCache


class FormCaches:
    """The query cache and the label memo of one FORM."""

    def __init__(self, config: Optional[CacheConfig] = None) -> None:
        #: whether the FORM reads and fills the layers at all
        self.enabled = (config if config is not None else CacheConfig()).enabled
        self.queries = FacetedQueryCache()
        self.labels = LabelResolutionCache()
        # Export the layers' CacheStats through the observability registry
        # (weakly referenced: a FORM going away takes its caches' metrics
        # with it).
        from repro import obs

        obs.register_caches(self)

    # -- lifecycle ---------------------------------------------------------------------

    def clear(self) -> None:
        """Drop every cached entry in every layer."""
        self.queries.clear()
        self.labels.clear()

    def on_external_change(self) -> None:
        """Drop the viewer-facing layer after a mutation the bus cannot see
        (auth changes, handler side effects outside the database)."""
        self.labels.clear()

    # -- introspection ------------------------------------------------------------------

    def stats(self) -> Dict[str, Dict[str, Any]]:
        """Hit/miss/eviction statistics of every layer, by name."""
        return {
            "queries": self.queries.stats.snapshot(),
            "labels": self.labels.stats.snapshot(),
        }

    def __repr__(self) -> str:
        return (
            f"FormCaches(enabled={self.enabled}, queries={len(self.queries)}, "
            f"labels={len(self.labels)})"
        )
