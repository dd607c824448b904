"""A small façade over a backend: the ``Database`` object.

Applications (and the ORMs in :mod:`repro.form` and :mod:`repro.baseline`)
hold a ``Database``, which owns a backend and provides convenience helpers
for schema creation and query construction.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.cache.bus import InvalidationBus
from repro.db.backend import Backend
from repro.db.expr import Expression, filters_to_expr
from repro.db.memory_backend import MemoryBackend
from repro.db.query import Aggregate, DeletePlan, Query, UpdatePlan
from repro.db.schema import Column, ColumnType, TableSchema


class Database:
    """A backend plus convenience helpers.

    ``Database()`` defaults to the in-memory engine; pass
    ``Database(SqliteBackend())`` to run against SQLite.

    >>> with Database() as db:
    ...     _ = db.define_table("Paper", title=ColumnType.TEXT)
    ...     pk = db.insert("Paper", title="facets")
    ...     db.get("Paper", id=pk)["title"]
    'facets'
    """

    def __init__(self, backend: Optional[Backend] = None) -> None:
        self.backend = backend if backend is not None else MemoryBackend()

    @classmethod
    def sqlite(cls, path: str = ":memory:", timeout: float = 30.0) -> "Database":
        """A database backed by SQLite.

        A file ``path`` gets per-thread WAL connections (concurrent readers);
        ``":memory:"`` falls back to one lock-serialised connection.
        """
        from repro.db.sqlite_backend import SqliteBackend

        return cls(SqliteBackend(path, timeout=timeout))

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    @property
    def invalidation(self) -> InvalidationBus:
        """The backend's write-event bus (see :class:`~repro.cache.bus.InvalidationBus`)."""
        return self.backend.invalidation

    def observe_statements(self) -> "StatementLog":
        """A :class:`~repro.db.observe.StatementLog` attached to the backend.

        Detach with ``log.detach()`` or use as a context manager:

        >>> with Database() as db:
        ...     _ = db.define_table("Paper", title=ColumnType.TEXT)
        ...     with db.observe_statements() as log:
        ...         _ = db.find("Paper", title="facets")
        ...     log.statements
        ['SELECT * FROM "Paper" WHERE title = ?']
        """
        from repro.db.observe import StatementLog

        return StatementLog(self.backend)

    # -- schema helpers ----------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> None:
        self.backend.create_table(schema)

    def define_table(self, name: str, /, **columns: ColumnType) -> TableSchema:
        """Define and create a table with an implicit ``id`` primary key.

        ``name`` is positional-only so a column may itself be called
        ``name``.

        >>> with Database() as db:
        ...     db.define_table("Person", name=ColumnType.TEXT).name
        'Person'
        """
        schema = TableSchema(
            name,
            (Column("id", ColumnType.INTEGER, primary_key=True),)
            + tuple(Column(column, ctype) for column, ctype in columns.items()),
        )
        self.backend.create_table(schema)
        return schema

    def drop_table(self, name: str) -> None:
        self.backend.drop_table(name)

    def has_table(self, name: str) -> bool:
        return self.backend.has_table(name)

    # -- data helpers --------------------------------------------------------------------

    def insert(self, table: str, **values: Any) -> int:
        """Insert one row, returning its primary key.

        >>> with Database() as db:
        ...     _ = db.define_table("Paper", title=ColumnType.TEXT)
        ...     db.insert("Paper", title="facets")
        1
        """
        return self.backend.insert(table, values)

    def insert_row(self, table: str, values: Dict[str, Any]) -> int:
        """Like :meth:`insert`, taking the row as a dict."""
        return self.backend.insert(table, values)

    def insert_many(self, table: str, rows: Sequence[Dict[str, Any]]) -> List[int]:
        """Bulk insert; backends batch this into one write + one event.

        >>> with Database() as db:
        ...     _ = db.define_table("Paper", title=ColumnType.TEXT)
        ...     db.insert_many("Paper", [{"title": "a"}, {"title": "b"}])
        [1, 2]
        """
        return self.backend.insert_many(table, rows)

    def update(self, table: str, where: Optional[Expression], **values: Any) -> int:
        """``UPDATE`` the rows matching ``where``; returns the number changed.

        >>> from repro.db.expr import eq
        >>> with Database() as db:
        ...     _ = db.define_table("Paper", title=ColumnType.TEXT, ok=ColumnType.BOOLEAN)
        ...     _ = db.insert_many("Paper", [{"title": "a", "ok": False}, {"title": "b", "ok": False}])
        ...     db.update("Paper", eq("title", "a"), ok=True)
        1
        """
        return self.backend.execute_update(UpdatePlan(table, values, where))

    def delete(self, table: str, where: Optional[Expression] = None) -> int:
        """``DELETE`` the rows matching ``where`` (all rows when ``None``)."""
        return self.backend.execute_delete(DeletePlan(table, where))

    def replace_rows(
        self,
        table: str,
        where: Optional[Expression],
        rows: Sequence[Dict[str, Any]],
    ) -> List[int]:
        """Atomically swap the rows matching ``where`` for ``rows``."""
        return self.backend.replace_rows(table, where, rows)

    def execute_update(self, plan: UpdatePlan) -> int:
        """Run a set-oriented :class:`~repro.db.query.UpdatePlan` (one write).

        >>> from repro.db.query import plan_update
        >>> from repro.db.expr import eq
        >>> with Database() as db:
        ...     _ = db.define_table("Paper", jid=ColumnType.INTEGER, ok=ColumnType.BOOLEAN)
        ...     _ = db.insert_many("Paper", [{"jid": 1, "ok": False}, {"jid": 2, "ok": True}])
        ...     db.execute_update(plan_update(db.query("Paper").filter(eq("ok", False)), {"ok": True}, "jid"))
        1
        """
        return self.backend.execute_update(plan)

    def execute_delete(self, plan: DeletePlan) -> int:
        """Run a set-oriented :class:`~repro.db.query.DeletePlan` (one write).

        >>> from repro.db.query import plan_delete
        >>> from repro.db.expr import eq
        >>> with Database() as db:
        ...     _ = db.define_table("Paper", jid=ColumnType.INTEGER)
        ...     _ = db.insert_many("Paper", [{"jid": 1}, {"jid": 1}, {"jid": 2}])
        ...     db.execute_delete(plan_delete(db.query("Paper").filter(eq("jid", 1)), "jid"))
        2
        """
        return self.backend.execute_delete(plan)

    def query(self, table: str) -> Query:
        """Start a fluent query against ``table``.

        >>> Database().query("Paper").limited(3).limit
        3
        """
        return Query(table=table)

    def rows(
        self,
        table: str,
        where: Optional[Expression] = None,
        order_by: Optional[Sequence[str]] = None,
        limit: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        query = Query(table=table, where=where)
        for column in order_by or ():
            query = query.ordered_by(column)
        if limit is not None:
            query = query.limited(limit)
        return self.backend.execute(query)

    def find(self, table: str, **filters: Any) -> List[Dict[str, Any]]:
        """Django-style keyword filtering.

        >>> with Database() as db:
        ...     _ = db.define_table("Paper", title=ColumnType.TEXT)
        ...     _ = db.insert_many("Paper", [{"title": "a"}, {"title": "b"}])
        ...     [row["title"] for row in db.find("Paper", title="b")]
        ['b']
        """
        return self.rows(table, where=filters_to_expr(filters))

    def get(self, table: str, **filters: Any) -> Optional[Dict[str, Any]]:
        """The first matching row dict, or ``None``."""
        matches = self.find(table, **filters)
        return matches[0] if matches else None

    def count(self, table: str, where: Optional[Expression] = None) -> int:
        """COUNT(*) of the rows matching ``where`` (all rows when ``None``).

        ``where`` may contain subqueries: both backends resolve them (the
        SQL backend inline, the memory engine by materialisation).

        >>> with Database() as db:
        ...     _ = db.define_table("Paper", title=ColumnType.TEXT)
        ...     _ = db.insert_many("Paper", [{"title": "a"}, {"title": "b"}])
        ...     db.count("Paper")
        2
        """
        query = Query(table=table, where=where).select_aggregates(Aggregate("COUNT"))
        return self.aggregate(query)

    def may_have_facets(self, table: str) -> bool:
        """Whether ``table`` may hold faceted rows (write-maintained state).

        Backed by :meth:`repro.db.backend.Backend.may_have_facets`: read
        off the per-table facet state that :meth:`facet_branch_keys` also
        reads, seeded when the table is created and kept by every write,
        so no caller (the guarded-delete pushdown, batched loading) runs a
        probe statement.

        >>> with Database() as db:
        ...     _ = db.define_table("Paper", jvars=ColumnType.TEXT)
        ...     db.may_have_facets("Paper")
        False
        """
        return self.backend.may_have_facets(table)

    def facet_branch_keys(self, table: str):
        """The policy-group branch keys of ``table``'s faceted rows.

        Backed by :meth:`repro.db.backend.Backend.facet_branch_keys`: a
        ``frozenset`` of group keys when every faceted row is a canonical
        single-group facet row, ``None`` when exotic labels may be present
        (the inline pushdown's soundness gate).  Seeded when the table is
        created and kept by every write, like :meth:`may_have_facets`.

        >>> with Database() as db:
        ...     _ = db.define_table("Doc", jid=ColumnType.INTEGER, jvars=ColumnType.TEXT)
        ...     _ = db.insert("Doc", jid=1, jvars="Doc.1.title=True")
        ...     sorted(db.facet_branch_keys("Doc"))
        ['title']
        """
        return self.backend.facet_branch_keys(table)

    def execute(self, query: Query) -> List[Dict[str, Any]]:
        return self.backend.execute(query)

    def explain(self, query: Query) -> Dict[str, Any]:
        """The query's plan shape, rendered SQL and backend access path.

        :meth:`Query.explain` (plan shape + SQL that string-equals the
        executed statement) merged with the backend's own plan detail: the
        memory engine's ``chosen_plan`` (a hash probe or the full scan),
        SQLite's ``EXPLAIN QUERY PLAN`` rows.  Nothing is executed and no
        statement event is emitted.

        >>> from repro.db.expr import eq, gt
        >>> from repro.db.schema import Column
        >>> with Database() as db:
        ...     schema = TableSchema("Paper", (
        ...         Column("id", ColumnType.INTEGER, primary_key=True),
        ...         Column("jid", ColumnType.INTEGER, indexed=True),
        ...         Column("score", ColumnType.INTEGER)))
        ...     db.create_table(schema)
        ...     _ = db.insert_many("Paper", [{"jid": n, "score": n} for n in range(8)])
        ...     probe = db.explain(db.query("Paper").filter(eq("jid", 2)))
        ...     scan = db.explain(db.query("Paper").filter(gt("score", 2)))
        >>> probe["chosen_plan"]
        {'access': 'hash-probe', 'index': 'hash:jid', 'column': 'jid', 'exact': True}
        >>> scan["chosen_plan"]
        {'access': 'full-scan'}
        """
        report = query.explain()
        report.update(self.backend.explain_query(query))
        return report

    def aggregate(self, query: Query) -> Any:
        """The value of a one-aggregate selection without GROUP BY
        (:meth:`~repro.db.backend.Backend.aggregate`).

        >>> with Database() as db:
        ...     _ = db.define_table("Paper", score=ColumnType.INTEGER)
        ...     _ = db.insert_many("Paper", [{"score": 3}, {"score": 5}])
        ...     db.aggregate(db.query("Paper").select_aggregates(Aggregate("MAX", "score")))
        5
        """
        return self.backend.aggregate(query)

    def clear(self) -> None:
        self.backend.clear()

    def close(self) -> None:
        self.backend.close()
