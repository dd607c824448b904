"""The backend interface shared by the in-memory engine and SQLite.

The FORM and the baseline ORM are written against this interface, which
mirrors the subset of SQL the paper's FORM needs: create/drop, insert,
select (with joins, ordering, limits and subselects), update, delete and
aggregates.  Both concrete backends must agree on every query shape --
``tests/db/`` runs each query test against the two of them.

>>> from repro.db import Database
>>> Database().backend.supports_concurrent_reads   # MemoryBackend default
False
"""

from __future__ import annotations

import abc
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro import obs
from repro.cache.bus import InvalidationBus
from repro.db.expr import Expression, canonical_branch
from repro.db.observe import StatementEvent
from repro.db.query import DeletePlan, Query, UpdatePlan
from repro.db.schema import TableSchema


class Backend(abc.ABC):
    """Abstract relational backend.

    Write events: every concrete backend publishes an event on its
    :attr:`invalidation` bus after each successful write and schema
    change, so a result stored beside the bus's stamp (the FORM's batched
    foreign-key loads) is never used after a write it could miss.  The bus
    is created lazily; publishing is a counter bump.

    Thread-safety contract (relied on by the WSGI serving layer): every
    method may be called from any thread.  Writes serialise internally and
    publish their invalidation event exactly once, after the write is
    committed/visible (:meth:`_end_write`, the last step of every write
    statement); reads return a consistent snapshot no older than the
    latest completed write.  Backends that can serve reads without blocking
    a concurrent writer advertise it via :attr:`supports_concurrent_reads`.
    """

    #: Whether reads proceed without waiting on an in-flight writer
    #: (e.g. SQLite in WAL mode with per-thread connections).
    @property
    def supports_concurrent_reads(self) -> bool:
        return False

    @property
    def invalidation(self) -> InvalidationBus:
        """The write-event bus of this backend (created on first use)."""
        bus = getattr(self, "_invalidation_bus", None)
        if bus is None:
            bus = InvalidationBus()
            self._invalidation_bus = bus
        return bus

    def _write_started(self) -> Optional[float]:
        """The start time of a write statement, or ``None`` when nothing
        observes it (see :meth:`_end_write`)."""
        return time.perf_counter() if self._observing() else None

    def _end_write(
        self,
        table: str,
        started: Optional[float],
        statement: Callable[[], Tuple[str, str, Sequence[Any], int]],
        written: Sequence[Dict[str, Any]] = (),
        changed: bool = True,
    ) -> None:
        """The one ending of every write statement, once its rows are visible.

        1. report the statement, if :meth:`_write_started` found an
           observer: ``statement()`` gives its kind, SQL, parameters and
           row count;
        2. record the facet state of the ``written`` rows;
        3. publish once on the invalidation bus, if any row ``changed``.

        Every write calls this last, after its commit or lock release, so
        a stamp that counts the write is never taken before its rows can be
        read.
        """
        if started is not None:
            duration = time.perf_counter() - started
            kind, sql, params, rows = statement()
            self._notify_statement(kind, sql, params, rows, duration)
        if changed:
            self._note_facet_write(table, written)
            self.invalidation.publish()

    def _publish_clear(self) -> None:
        # clear() removes every row, so every table is facet-free again.
        branches = self._branch_keys
        for name in self.table_names():
            branches[name] = set()
        self.invalidation.publish()

    def _publish_schema_change(self, table: Optional[str] = None) -> None:
        if table is not None:
            self._branch_keys.pop(table, None)
        self.invalidation.publish()

    # -- facet bookkeeping ---------------------------------------------------------

    @property
    def _branch_keys(self) -> Dict[str, Optional[set]]:
        """Per-table facet state: the policy-group branch keys of its
        faceted rows.

        ``set`` of keys when every faceted row written so far was a
        canonical single-group facet row (``jvars`` exactly
        ``"{table}.{jid}.{key}={bool}"`` for the row's own ``jid``, as
        :func:`~repro.db.expr.canonical_branch` decides), so the
        empty set means the table holds no faceted row; ``None`` is the
        sticky "exotic" verdict (multi-branch rows, program-counter labels,
        foreign-jid labels, or an update whose new ``jvars`` cannot be
        checked against a row id).  Seeded when the table is created
        (:meth:`_seed_facet_state`), updated in place by every write
        (:meth:`_note_facet_write`) and reset to the empty set by
        ``clear()``; absent means unknown (seeding failed), which
        :meth:`facet_branch_keys` answers as ``None``.
        """
        state = getattr(self, "_branch_state", None)
        if state is None:
            state = {}
            self._branch_state = state
        return state

    def _seed_facet_state(
        self, table: str, faceted_rows: Iterable[Sequence[Any]] = ()
    ) -> None:
        """Know a just-created table's facet state before its first read.

        ``faceted_rows`` yields the ``(jid, jvars)`` of every row with
        non-empty ``jvars``: none for a fresh table, the adopted rows of a
        persistent one (streamed once, at schema time).
        """
        keys: Optional[set] = set()
        for jid, encoded in faceted_rows:
            branch = canonical_branch(table, jid, encoded)
            if branch is None:
                keys = None
                break
            keys.add(branch[0])
        self._branch_keys[table] = keys

    def _note_facet_write(self, table: str, rows: Sequence[Dict[str, Any]]) -> None:
        """Record the branch keys of the faceted ``rows`` just written."""
        branches = self._branch_keys
        for row in rows:
            encoded = row.get("jvars")
            if not encoded:
                continue
            known = branches.get(table)
            if known is None:
                continue  # exotic (sticky) or unknown
            # An UPDATE's values carry no jid, so its jvars is unverifiable.
            branch = canonical_branch(table, row.get("jid"), encoded)
            if branch is None:
                branches[table] = None
            else:
                known.add(branch[0])

    def facet_branch_keys(self, table: str) -> Optional[frozenset]:
        """The policy-group keys of ``table``'s faceted rows, or ``None``.

        A ``frozenset`` (possibly empty) means every faceted row currently
        in the table -- and every one written since it was created -- is a
        canonical single-group facet row whose group key is in the set,
        which is the soundness condition for rendering a policy branch
        inline with :class:`~repro.db.expr.FacetBranch`.  ``None`` means
        exotic labels may be present, or the state is unknown, and inline
        rendering must not be used.  Runs no statement.
        """
        known = self._branch_keys.get(table)
        return None if known is None else frozenset(known)

    def may_have_facets(self, table: str) -> bool:
        """Whether ``table`` may hold faceted rows (non-empty ``jvars``).

        True unless the table's facet state (:attr:`_branch_keys`) is the
        empty set, so it always equals ``facet_branch_keys(table) !=
        frozenset()``; runs no statement.  Tables without a ``jvars``
        column never hold facets, and an unknown table answers ``True``.

        >>> from repro.db import Database
        >>> from repro.db.schema import ColumnType
        >>> with Database() as db:
        ...     _ = db.define_table("Paper", jvars=ColumnType.TEXT)
        ...     before = db.backend.may_have_facets("Paper")
        ...     _ = db.insert("Paper", jvars="a=True")
        ...     (before, db.backend.may_have_facets("Paper"))
        (False, True)
        """
        keys = self._branch_keys.get(table)
        return keys is None or bool(keys)

    # -- statement observation -----------------------------------------------------

    def add_statement_observer(self, observer: Callable[[StatementEvent], None]) -> None:
        """Register a callable receiving a :class:`StatementEvent` per statement.

        Both backends report SELECT/UPDATE/DELETE statements (the memory
        engine renders the SQL it would have sent) plus summary events for
        compound writes, with per-statement timing and row counts.  Use
        :class:`~repro.db.observe.StatementLog` for the common capture case.
        """
        observers = getattr(self, "_statement_observers", None)
        if observers is None:
            observers = []
            self._statement_observers = observers
        observers.append(observer)

    def remove_statement_observer(self, observer: Callable[[StatementEvent], None]) -> None:
        observers = getattr(self, "_statement_observers", None)
        if observers and observer in observers:
            observers.remove(observer)

    def _observing(self) -> bool:
        """Whether any statement event would have a consumer right now.

        The guard hot paths check before rendering SQL or reading the
        clock: true when an observer is registered or this thread has a
        trace in flight.  With neither, instrumentation costs one call.
        """
        return bool(getattr(self, "_statement_observers", None)) or obs.active()

    def _notify_statement(
        self, kind: str, sql: str, params: Sequence[Any], rows: int, duration: float
    ) -> None:
        """Fan one executed statement out to observers and the active trace."""
        event = StatementEvent(kind, sql, tuple(params), rows, duration)
        for observer in getattr(self, "_statement_observers", None) or ():
            observer(event)
        obs.record_statement(event)

    # -- schema management -------------------------------------------------------

    @abc.abstractmethod
    def create_table(self, schema: TableSchema) -> None:
        """Create a table (no-op if it already exists with the same name)."""

    @abc.abstractmethod
    def drop_table(self, name: str) -> None:
        """Drop a table if it exists."""

    @abc.abstractmethod
    def has_table(self, name: str) -> bool:
        """Whether a table with this name exists."""

    @abc.abstractmethod
    def schema(self, name: str) -> TableSchema:
        """The schema of an existing table."""

    @abc.abstractmethod
    def table_names(self) -> List[str]:
        """Names of all existing tables."""

    # -- data manipulation ----------------------------------------------------------

    @abc.abstractmethod
    def insert(self, table: str, values: Dict[str, Any]) -> int:
        """Insert one row; returns the assigned primary key."""

    @abc.abstractmethod
    def insert_many(self, table: str, rows: Sequence[Dict[str, Any]]) -> List[int]:
        """Insert many rows atomically, in one write with one invalidation
        event; returns their primary keys.

        ``rows`` may be any iterable.  An unknown table raises
        :class:`~repro.db.schema.SchemaError`; an empty batch returns
        ``[]`` without reporting a statement or publishing an event."""

    @abc.abstractmethod
    def execute_update(self, plan: UpdatePlan) -> int:
        """Run a set-oriented :class:`~repro.db.query.UpdatePlan` in one write.

        The plan's WHERE may nest a record-key subselect (see
        ``plan_update``): the SQL backend renders it inline so the whole
        write is one statement; the memory backend materialises it and
        mutates under a single lock hold.  Returns the number of rows
        changed; publishes one invalidation event when any row changed.
        """

    @abc.abstractmethod
    def execute_delete(self, plan: DeletePlan) -> int:
        """Run a set-oriented :class:`~repro.db.query.DeletePlan` in one write.

        Single-statement counterpart of :meth:`execute_update` for DELETE;
        returns the number of rows removed.
        """

    @abc.abstractmethod
    def replace_rows(
        self, table: str, where: Optional[Expression], rows: Sequence[Dict[str, Any]]
    ) -> List[int]:
        """Replace the rows matching ``where`` with ``rows``; returns new pks.

        The FORM's facet rewrite swaps records' facet-row sets with this.
        The swap is atomic for readers (one transaction / one lock hold),
        with a single invalidation event.
        """

    # -- queries -----------------------------------------------------------------------

    @abc.abstractmethod
    def execute(self, query: Query) -> List[Dict[str, Any]]:
        """Run a select query; join results use qualified column keys.

        Every value is its column's Python value (a BOOLEAN is a ``bool``,
        a DATETIME a ``datetime``), joined rows included.  Each row is a
        fresh dict that no one else holds, so the caller may keep and
        change it: the FORM makes each row the state of an instance.
        """

    def aggregate(self, query: Query) -> Any:
        """The value of a one-aggregate selection without GROUP BY.

        Runs the selection through :meth:`execute` -- one statement on both
        backends -- and reads its one result row.  A grouped selection is
        read with :meth:`execute`.

        >>> from repro.db import Database
        >>> from repro.db.query import Aggregate
        >>> from repro.db.schema import ColumnType
        >>> with Database() as db:
        ...     _ = db.define_table("Paper", score=ColumnType.INTEGER)
        ...     _ = db.insert_many("Paper", [{"score": 3}, {"score": 5}])
        ...     db.backend.aggregate(db.query("Paper").select_aggregates(Aggregate("MAX", "score")))
        5
        """
        if len(query.aggregates) != 1 or query.group_by:
            raise ValueError(
                "aggregate() reads one aggregate without GROUP BY; "
                "read other selections with execute()"
            )
        rows = self.execute(query)
        return rows[0][query.aggregates[0].result_key()] if rows else None

    def explain_query(self, query: Query) -> Dict[str, Any]:
        """Backend-specific plan detail merged into ``Query.explain()``.

        The memory engine reports the access path the read takes
        (``chosen_plan``: a hash probe or the full scan); SQLite reports
        its own ``EXPLAIN QUERY PLAN`` rows.  Must not execute the query or
        emit statement-observer events.  Default: nothing to add.
        """
        return {}

    # -- lifecycle -----------------------------------------------------------------------

    @abc.abstractmethod
    def clear(self) -> None:
        """Remove all rows from all tables (schemas are kept)."""

    def close(self) -> None:
        """Release any underlying resources (optional)."""
