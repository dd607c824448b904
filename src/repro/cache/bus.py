"""The write-through invalidation bus.

Database backends publish a table-level event after every successful write
(insert, update, delete, clear, drop).  Caches subscribe and drop the
entries the write could have affected, so a cached read can never observe
rows older than the latest committed write -- the "write-through" half of
the subsystem's correctness argument.

The bus also tracks two kinds of generation counters used in cache keys:

* a per-table **write generation**, bumped on every data write;
* a global **schema generation**, bumped on create/drop table, so cached
  query results never survive a schema change.
"""

from __future__ import annotations

import threading
import weakref
from typing import Any, Callable, Dict, List, Optional

#: Subscriber signature: called with the affected table name.  Events that
#: concern every table (``clear``) are delivered once per known table plus
#: once with :data:`ALL_TABLES`.
Subscriber = Callable[[str], None]

#: Wildcard table name published when a write affects an unknown set of
#: tables (e.g. ``Database.clear()``).
ALL_TABLES = "*"


class InvalidationBus:
    """Table-level write events plus generation counters.

    Thread-safe: publishing snapshots the subscriber list under the lock and
    invokes callbacks outside it, so a subscriber may unsubscribe (or
    publish) re-entrantly without deadlocking.
    """

    def __init__(self) -> None:
        self._subscribers: List[Subscriber] = []
        self._write_generations: Dict[str, int] = {}
        self._schema_generation = 0
        self._lock = threading.Lock()
        #: total number of events delivered (for tests and diagnostics)
        self.events_published = 0

    # -- subscriptions --------------------------------------------------------------

    def subscribe(self, subscriber: Subscriber) -> Subscriber:
        """Register a callback; returns it so it can be unsubscribed later."""
        with self._lock:
            if subscriber not in self._subscribers:
                self._subscribers.append(subscriber)
        return subscriber

    def unsubscribe(self, subscriber: Subscriber) -> None:
        with self._lock:
            if subscriber in self._subscribers:
                self._subscribers.remove(subscriber)

    @property
    def subscriber_count(self) -> int:
        with self._lock:
            return len(self._subscribers)

    # -- publishing ------------------------------------------------------------------

    def publish(self, table: str) -> None:
        """Announce that rows of ``table`` changed."""
        with self._lock:
            self._write_generations[table] = self._write_generations.get(table, 0) + 1
            self.events_published += 1
            subscribers = list(self._subscribers)
        for subscriber in subscribers:
            subscriber(table)

    def publish_all(self) -> None:
        """Announce a write of unknown extent (``clear``): every cache entry
        derived from any table must go."""
        with self._lock:
            for table in self._write_generations:
                self._write_generations[table] += 1
            self.events_published += 1
            subscribers = list(self._subscribers)
        for subscriber in subscribers:
            subscriber(ALL_TABLES)

    def schema_changed(self, table: Optional[str] = None) -> None:
        """Announce a create/drop; bumps the schema generation and, for a
        drop, also invalidates the table's cached data."""
        with self._lock:
            self._schema_generation += 1
        if table is not None:
            self.publish(table)

    # -- generations ------------------------------------------------------------------

    @property
    def schema_generation(self) -> int:
        with self._lock:
            return self._schema_generation

    def write_generation(self, table: str) -> int:
        with self._lock:
            return self._write_generations.get(table, 0)

    def __repr__(self) -> str:
        return (
            f"InvalidationBus(subscribers={self.subscriber_count}, "
            f"events={self.events_published}, schema_gen={self._schema_generation})"
        )


def subscribe_weak(
    bus: InvalidationBus, owner: Any, method: Callable[[Any, str], None]
) -> Subscriber:
    """Subscribe ``method(owner, table)`` holding ``owner`` only weakly.

    Caches live and die with their FORM, while the database (and its bus)
    may outlive many FORMs.  A strong subscription would pin every dead
    cache on the bus forever; this forwarder lets the cache be collected
    and lazily unsubscribes itself on the next event after that.
    """
    owner_ref = weakref.ref(owner)

    def forward(table: str) -> None:
        target = owner_ref()
        if target is None:
            bus.unsubscribe(forward)
            return
        method(target, table)

    bus.subscribe(forward)
    return forward
