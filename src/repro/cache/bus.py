"""The invalidation bus: the write counters that stamp cache entries.

Database backends publish a table-level event after every successful write
(insert, update, delete, clear, drop), once the written rows are visible.
Publishing only bumps counters; no cache is called back.  A cache stores
each entry beside a *stamp* read from these counters before the entry's
statement ran, and an entry answers only under an equal stamp
(:class:`~repro.cache.lru.LRUCache`).  A write that lands before a lookup
-- even one that raced the fill -- has changed the stamp, so a cached read
can never observe rows older than the latest committed write: the
"write-through" half of the subsystem's correctness argument.

The counters are:

* a per-table **write generation**, bumped on every data write;
* the **write count** (:attr:`InvalidationBus.events_published`), bumped
  once per event;
* a global **schema generation**, bumped on create/drop table, so cached
  results never survive a schema change.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Optional, Tuple

from repro.cache.epoch import policy_epoch


class InvalidationBus:
    """Table-level write events, counted into generations.  Thread-safe."""

    def __init__(self) -> None:
        self._write_generations: Dict[str, int] = {}
        self._schema_generation = 0
        self._lock = threading.Lock()
        #: total number of events published: the write count
        self.events_published = 0

    # -- publishing ------------------------------------------------------------------

    def publish(self, table: str) -> None:
        """Announce that rows of ``table`` changed."""
        with self._lock:
            self._write_generations[table] = self._write_generations.get(table, 0) + 1
            self.events_published += 1

    def publish_all(self, tables: Iterable[str]) -> None:
        """Announce a write of unknown extent (``clear``) as one event that
        bumps the write generation of ``tables`` and of every table already
        written."""
        with self._lock:
            for table in {*self._write_generations, *tables}:
                self._write_generations[table] = self._write_generations.get(table, 0) + 1
            self.events_published += 1

    def schema_changed(self, table: Optional[str] = None) -> None:
        """Announce a create/drop; bumps the schema generation and, for a
        drop, also publishes a write of the table's data."""
        with self._lock:
            self._schema_generation += 1
        if table is not None:
            self.publish(table)

    # -- generations and stamps ----------------------------------------------------------

    @property
    def schema_generation(self) -> int:
        with self._lock:
            return self._schema_generation

    def write_generation(self, table: str) -> int:
        with self._lock:
            return self._write_generations.get(table, 0)

    def tables_stamp(self, tables: Iterable[str]) -> Tuple[int, Tuple[int, ...]]:
        """The stamp of a result read from ``tables``: the schema generation
        and each table's write generation.  A write to any other table
        leaves it unchanged."""
        with self._lock:
            generations = tuple(self._write_generations.get(table, 0) for table in tables)
            return self._schema_generation, generations

    def stamp(self) -> Tuple[int, int, int]:
        """The stamp of an outcome that may depend on any table and on
        policy inputs outside the database: ``(write count, schema
        generation, policy epoch)``.  Every component only grows, so a
        later stamp compares greater."""
        with self._lock:
            counts = (self.events_published, self._schema_generation)
        return (*counts, policy_epoch())

    def __repr__(self) -> str:
        return (
            f"InvalidationBus(events={self.events_published}, "
            f"schema_gen={self._schema_generation})"
        )
