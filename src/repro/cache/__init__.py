"""Policy-aware caching for the faceted ORM (the ``repro.cache`` subsystem).

Caching faceted data is security-sensitive: a cache entry must never leak
one viewer's facet to another, nor outlive a write it could depend on.  The
subsystem therefore splits into two layers with distinct sharing rules, on
one staleness rule:

* :class:`~repro.cache.lru.LRUCache` -- the generic bounded cache with
  hit/miss/eviction statistics both layers are built on.  Each entry is
  stored beside a stamp and answers only under an equal stamp;
* :class:`~repro.cache.query_cache.FacetedQueryCache` -- raw row+jvar
  query results cached *before* Early Pruning, so one fetch is shared by
  all viewers without storing anything viewer-specific.  Stamped with the
  write generations of the tables the query reads;
* :class:`~repro.cache.label_cache.LabelResolutionCache` -- per-viewer
  label outcomes, keyed by ``(label name, viewer identity)``.  Stamped with
  the write count, schema generation and policy epoch;
* :class:`~repro.cache.bus.InvalidationBus` -- the counters every database
  write bumps, from which the stamps are read.

:class:`~repro.cache.config.CacheConfig` on the FORM switches the layers on
(the default) or off (``CacheConfig.disabled()`` restores the uncached,
paper-faithful behaviour); :class:`~repro.cache.integration.FormCaches`
holds them.
"""

from repro.cache.bus import InvalidationBus
from repro.cache.config import CacheConfig
from repro.cache.epoch import bump_policy_epoch, policy_epoch
from repro.cache.integration import FormCaches
from repro.cache.label_cache import LabelResolutionCache, viewer_cache_key
from repro.cache.lru import MISSING, CacheStats, LRUCache
from repro.cache.query_cache import FacetedQueryCache, normalize_query

__all__ = [
    "CacheConfig",
    "CacheStats",
    "FacetedQueryCache",
    "FormCaches",
    "InvalidationBus",
    "LRUCache",
    "LabelResolutionCache",
    "MISSING",
    "bump_policy_epoch",
    "normalize_query",
    "policy_epoch",
    "viewer_cache_key",
]
