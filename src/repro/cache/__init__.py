"""Policy-aware caching for the faceted ORM (the ``repro.cache`` subsystem).

Caching faceted data is security-sensitive: a cache entry must never leak
one viewer's facet to another, nor outlive a write it could depend on.  The
subsystem therefore caches only what every viewer may share, on one
staleness rule:

* :class:`~repro.cache.lru.LRUCache` -- the generic bounded cache with
  hit/miss/eviction statistics the query cache is built on.  Each entry is
  stored beside a stamp and answers only under an equal stamp;
* :class:`~repro.cache.query_cache.FacetedQueryCache` -- raw row+jvar
  query results cached *before* Early Pruning, so one fetch is shared by
  all viewers without storing anything viewer-specific.  Stamped with the
  write generations of the tables the query reads;
* :class:`~repro.cache.bus.InvalidationBus` -- the counters every database
  write bumps, from which the stamps are read.

Labels are resolved against the system's state on every read, as the
paper's Early Pruning does; nothing memoises a label outcome across reads.

:class:`~repro.cache.config.CacheConfig` on the FORM switches the query
cache on (the default) or off (``CacheConfig.disabled()`` restores the
uncached, paper-faithful behaviour); :class:`~repro.cache.integration.FormCaches`
holds it.
"""

from repro.cache.bus import InvalidationBus
from repro.cache.config import CacheConfig
from repro.cache.epoch import bump_policy_epoch, policy_epoch
from repro.cache.integration import FormCaches
from repro.cache.lru import MISSING, CacheStats, LRUCache
from repro.cache.query_cache import FacetedQueryCache, normalize_query

__all__ = [
    "CacheConfig",
    "CacheStats",
    "FacetedQueryCache",
    "FormCaches",
    "InvalidationBus",
    "LRUCache",
    "MISSING",
    "bump_policy_epoch",
    "normalize_query",
    "policy_epoch",
]
