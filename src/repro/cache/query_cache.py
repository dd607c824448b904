"""The faceted query cache.

Entries are keyed by ``(table, normalized query)`` and store the raw
unmarshalled ``(jid, jvar branches, column values)`` rows of a query result
*before* Early Pruning runs.  That ordering is what makes the cache safe to
share across viewers: pruning and policy resolution still happen per
request, for the actual viewer, against exactly the rows an uncached fetch
would have produced.  Nothing viewer-specific is ever stored here.

The same store caches aggregate plans: an aggregate pushdown's jvars
partitions (``(branches, per-partition aggregate row)`` pairs) are
pre-pruning data by the same argument -- the faceted merge and the
per-viewer visibility filter both run per request -- and the aggregate
query's own normalised text keys the entry, so a row-fetching plan and an
aggregate plan over the same filters never collide.

Staleness: each entry is stored beside the stamp taken before its
statement ran (:meth:`FacetedQueryCache.stamp_for`) -- the schema
generation plus the write generation of every table the query reads.  A
write to any of those tables changes the stamp, so the entry turns into a
miss and the next fill overwrites it; a write to any other table leaves it
served.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.cache.bus import InvalidationBus
from repro.cache.lru import LRUCache, MISSING

#: One cached result row: (jid, jvar branches, unqualified column values).
CachedEntry = Tuple[int, Tuple[Tuple[str, bool], ...], Dict[str, Any]]

#: One cached aggregate partition: (jvar branches, per-partition aggregates).
AggregateEntry = Tuple[Tuple[Tuple[str, bool], ...], Dict[str, Any]]

#: The most results the cache holds (least recently used go first).
QUERY_CACHE_SIZE = 512

#: Results with more rows than this are served but not cached: the LRU
#: bound counts entries, so one huge result must not pin a full-table copy
#: per filter/ordering combination.
QUERY_CACHE_MAX_ROWS = 10_000


def normalize_query(query: Any) -> Tuple[str, str]:
    """A deterministic textual key for a query description: the statement
    a SQL backend runs for it, with its parameters.

    ``repro.db.sqlgen.query_to_sql`` renders a ``repro.db.query.Query``
    (expressions and subqueries included) to exactly the SQL text and
    parameters the SQLite backend sends and the memory engine reports,
    and the parameters' ``repr`` keeps their types apart (``1``, ``1.0``
    and ``True`` differ), so two queries share a key when they are the
    same statement.  It costs about half a ``repr`` of the tree, which
    matters for a pushed read, whose statement carries the viewer's whole
    pruning predicate.

    >>> from repro.db.expr import eq
    >>> from repro.db.query import Query
    >>> normalize_query(Query("T").filter(eq("n", 1)))
    ('SELECT * FROM "T" WHERE n = ?', '[1]')
    >>> normalize_query(Query("T").filter(eq("n", True)))
    ('SELECT * FROM "T" WHERE n = ?', '[True]')
    """
    # Imported here: repro.db imports this package (its invalidation bus).
    from repro.db.sqlgen import query_to_sql

    sql, params = query_to_sql(query, qualify=query.is_join())
    return sql, repr(params)


class FacetedQueryCache:
    """Caches pre-pruning query results under their tables' stamp."""

    def __init__(self) -> None:
        self._lru = LRUCache(QUERY_CACHE_SIZE)

    @staticmethod
    def key_for(table: str, query: Any) -> Hashable:
        """The cache key of one query: its table and normalised statement."""
        return (table, normalize_query(query))

    @staticmethod
    def stamp_for(bus: InvalidationBus, query: Any) -> Hashable:
        """The stamp of ``query``'s result as of now: take it *before* the
        statement runs.  It covers every table the query reads
        (``Query.tables_read()``: joins, and tables referenced only inside
        subqueries)."""
        return bus.tables_stamp(query.tables_read())

    def get(self, key: Hashable, stamp: Hashable) -> Optional[List[CachedEntry]]:
        """The result stored under ``key`` and ``stamp``, or ``None``."""
        value = self._lru.lookup(key, stamp)
        return None if value is MISSING else value

    def put(self, key: Hashable, stamp: Hashable, entries: List[CachedEntry]) -> None:
        """Store a result beside the stamp taken before it was read.

        Oversized results (more than :data:`QUERY_CACHE_MAX_ROWS` rows) are
        served but not stored, bounding per-entry memory."""
        if len(entries) <= QUERY_CACHE_MAX_ROWS:
            self._lru.put(key, entries, stamp)

    def clear(self) -> None:
        self._lru.clear()

    # -- introspection ------------------------------------------------------------------

    @property
    def stats(self):
        return self._lru.stats

    def __len__(self) -> int:
        return len(self._lru)

    def __repr__(self) -> str:
        return f"FacetedQueryCache({self._lru!r})"
