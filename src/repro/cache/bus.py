"""The invalidation bus: one counter of database writes.

Database backends publish an event after every successful write (insert,
update, delete, clear) and every schema change (create or drop table),
once the written rows are visible.  Publishing only bumps
:attr:`InvalidationBus.events_published`; no one is called back.

A result that may depend on any table and on policy inputs outside the
database is stored beside :meth:`InvalidationBus.stamp`, taken before it
was read, and is used only while the stamp is unchanged.  The FORM's
batched foreign-key loads work this way (``repro.form.manager
._batched_lookup``): a write that lands after the load, even one that
raced it, changes the stamp, so a later lookup reads afresh instead of
seeing rows older than that write.
"""

from __future__ import annotations

import threading
from typing import Tuple

from repro.cache.epoch import policy_epoch


class InvalidationBus:
    """Counts write and schema-change events.  Thread-safe."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: total number of events published: the write count
        self.events_published = 0

    def publish(self) -> None:
        """Announce that rows or a schema changed."""
        with self._lock:
            self.events_published += 1

    def stamp(self) -> Tuple[int, int]:
        """The stamp of an outcome that may depend on any table and on
        policy inputs outside the database: ``(write count, policy
        epoch)``.  Both components only grow, so a later stamp compares
        greater."""
        return self.events_published, policy_epoch()

    def __repr__(self) -> str:
        return f"InvalidationBus(events={self.events_published})"
