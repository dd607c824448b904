"""A backend on top of the standard library's ``sqlite3``.

This demonstrates the paper's claim that the FORM "works with existing
relational database implementations": the same meta-data manipulation used
by the in-memory engine runs unmodified against a real SQL database.

Concurrency model (the serving layer runs requests on worker threads):

* **File databases** use one connection per thread from a small pool, with
  WAL journaling so readers never block on the single writer.  Reads run on
  the calling thread's own connection without any framework lock; writes
  serialise on a process-wide write lock and commit before the lock is
  released, so the invalidation bus publishes exactly once per committed
  write and no cached read can observe rows older than that write.
* **In-memory databases** cannot be shared between connections, so every
  operation -- reads included -- serialises on the write lock over the one
  shared connection.  That keeps ``:memory:`` correct (tests, benchmarks)
  at the cost of read concurrency; use a file path for concurrent serving.
"""

from __future__ import annotations

import contextlib
import datetime
import sqlite3
import threading
import time
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.db.backend import Backend
from repro.db.expr import Expression
from repro.db.observe import insert_summary, replace_summary
from repro.db.query import DeletePlan, Query, UpdatePlan
from repro.db.schema import Column, ColumnType, SchemaError, TableSchema, index_name
from repro.db.sqlgen import delete_to_sql, query_to_sql, schema_to_sql, update_to_sql


class _ConnectionPool:
    """Per-thread ``sqlite3`` connections against one database file.

    A thread borrows a connection on first use and keeps it for its
    lifetime; connections owned by finished threads are reclaimed onto a
    free list (swept deterministically whenever another thread needs a
    connection -- no reliance on GC finalisers), so thread-per-connection
    servers reuse a handful of connections instead of leaking one per
    request thread.  Connections are configured for WAL + busy-timeout and
    tracked so :meth:`close_all` can release them
    (``check_same_thread=False`` permits the cross-thread reuse and close).
    """

    def __init__(self, path: str, timeout: float) -> None:
        self._path = path
        self._timeout = timeout
        self._local = threading.local()
        self._connections: List[sqlite3.Connection] = []
        self._free: List[sqlite3.Connection] = []
        #: thread ident -> (thread, its borrowed connection)
        self._owners: Dict[int, Any] = {}
        self._lock = threading.Lock()
        self._closed = False

    def connection(self) -> sqlite3.Connection:
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            return connection
        me = threading.current_thread()
        with self._lock:
            if self._closed:
                raise sqlite3.ProgrammingError("connection pool is closed")
            self._reclaim_dead_locked()
            connection = self._free.pop() if self._free else None
        created = False
        if connection is None:
            connection = sqlite3.connect(
                self._path, timeout=self._timeout, check_same_thread=False
            )
            connection.row_factory = sqlite3.Row
            connection.execute("PRAGMA journal_mode=WAL")
            connection.execute("PRAGMA synchronous=NORMAL")
            connection.execute(f"PRAGMA busy_timeout={int(self._timeout * 1000)}")
            created = True
        with self._lock:
            # Re-check under the registering lock hold: close_all() may have
            # run while this connection was being opened, and a connection
            # registered after the close would never be closed.
            if not self._closed:
                if created:
                    self._connections.append(connection)
                self._owners[me.ident] = (me, connection)
                self._local.connection = connection
                return connection
        try:
            connection.close()
        except sqlite3.Error:  # pragma: no cover - close is best-effort
            pass
        raise sqlite3.ProgrammingError("connection pool is closed")

    def _reclaim_dead_locked(self) -> None:
        """Move connections of finished threads back to the free list."""
        for ident, (thread, connection) in list(self._owners.items()):
            if not thread.is_alive():
                del self._owners[ident]
                self._free.append(connection)

    def size(self) -> int:
        with self._lock:
            return len(self._connections)

    def close_all(self) -> None:
        with self._lock:
            self._closed = True
            connections, self._connections = self._connections, []
            self._free.clear()
            self._owners.clear()
        for connection in connections:
            try:
                connection.close()
            except sqlite3.Error:  # pragma: no cover - close is best-effort
                pass


class SqliteBackend(Backend):
    """Stores tables in a SQLite database (in-memory by default).

    ``emit_indexes=False`` suppresses every ``CREATE INDEX`` at table
    creation -- the forced-scan configuration plan-parity fuzzing compares
    against; all statements and results are otherwise identical.
    """

    def __init__(
        self, path: str = ":memory:", timeout: float = 30.0,
        emit_indexes: bool = True,
    ) -> None:
        self._path = path
        self._is_memory = path == ":memory:"
        self._write_lock = threading.RLock()
        self._schemas: Dict[str, TableSchema] = {}
        #: table -> its (column, decode) pairs for the BOOLEAN/DATETIME
        #: columns, the only ones whose stored form differs from Python's
        self._row_decoders: Dict[str, Tuple[Tuple[str, Callable[[Any], Any]], ...]] = {}
        #: table -> its stored column names, in order: what ``"T".*``
        #: returns, which a file created by an older schema may widen
        self._stored_columns: Dict[str, Tuple[str, ...]] = {}
        self._emit_indexes = emit_indexes
        #: Every CREATE INDEX statement this backend has executed, in order
        #: (the captured-DDL record index-coverage tests assert against).
        self._index_ddl: List[str] = []
        if self._is_memory:
            self._shared_connection: Optional[sqlite3.Connection] = sqlite3.connect(
                path, check_same_thread=False
            )
            self._shared_connection.row_factory = sqlite3.Row
            self._pool: Optional[_ConnectionPool] = None
        else:
            self._shared_connection = None
            self._pool = _ConnectionPool(path, timeout)
            # Create the file (and switch it to WAL) eagerly so a failure
            # surfaces at construction, not on the first worker thread.
            self._pool.connection()

    #: File-backed instances serve concurrent readers without locking (WAL).
    @property
    def supports_concurrent_reads(self) -> bool:
        return not self._is_memory

    # -- connection handling ----------------------------------------------------------

    @contextlib.contextmanager
    def _reading(self) -> Iterator[sqlite3.Connection]:
        """A connection suitable for a read on the calling thread."""
        if self._is_memory:
            with self._write_lock:
                yield self._shared_connection
        else:
            yield self._pool.connection()

    @contextlib.contextmanager
    def _writing(self) -> Iterator[sqlite3.Connection]:
        """The write-lock-protected connection; commit before it is released.

        Any exception rolls the connection back: a failed statement must not
        leave the implicit transaction open, or every later lock-free WAL
        read on this thread's connection would be pinned to a stale snapshot.
        """
        with self._write_lock:
            connection = (
                self._shared_connection if self._is_memory else self._pool.connection()
            )
            try:
                yield connection
            except BaseException:
                connection.rollback()
                raise

    # -- schema management ------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> None:
        if schema.name in self._schemas:
            return
        statement = schema_to_sql(schema)
        index_statements = self._index_statements(schema) if self._emit_indexes else []
        with self._writing() as connection:
            connection.execute(statement)
            for index_statement in index_statements:
                connection.execute(index_statement)
            connection.commit()
            self._index_ddl.extend(index_statements)
            self._schemas[schema.name] = schema
            self._row_decoders[schema.name] = _row_decoder(schema)
            self._stored_columns[schema.name] = tuple(
                row[1] for row in connection.execute(f'PRAGMA table_info("{schema.name}")')
            )
            try:
                self._seed_facet_state(
                    schema.name, self._adopted_facet_rows(connection, schema)
                )
            except sqlite3.Error:  # the state stays unknown: read conservatively
                pass
        self._publish_schema_change()

    @staticmethod
    def _index_statements(schema: TableSchema) -> List[str]:
        """Every ``CREATE INDEX`` statement a table's schema calls for.

        Hash-indexed columns (``indexed=True``) and ordered indexes
        (``ordered=True`` columns plus explicit :class:`IndexSpec`\\ s,
        composite included) both become plain B-tree indexes here --
        SQLite's indexes are ordered already, so the two memory-engine
        index families collapse into one DDL form.  A column that is both
        ``indexed`` and ``ordered`` gets a single index.
        """
        statements: List[str] = []
        emitted = set()
        for column in schema.indexed_columns():
            name = f"idx_{schema.name}_{column.name}"
            emitted.add(name)
            statements.append(
                f'CREATE INDEX IF NOT EXISTS "{name}" '
                f'ON "{schema.name}" ("{column.name}")'
            )
        for spec in schema.ordered_indexes():
            name = index_name(schema.name, spec)
            if name in emitted:
                continue
            emitted.add(name)
            columns_sql = ", ".join(f'"{c}"' for c in spec.columns)
            statements.append(
                f'CREATE INDEX IF NOT EXISTS "{name}" '
                f'ON "{schema.name}" ({columns_sql})'
            )
        return statements

    def index_ddl(self) -> List[str]:
        """The ``CREATE INDEX`` statements executed so far, in order."""
        return list(self._index_ddl)

    def _adopted_facet_rows(
        self, connection: sqlite3.Connection, schema: TableSchema
    ) -> Iterable[Tuple[Any, str]]:
        """The ``(jid, jvars)`` of a just-created table's faceted rows.

        ``CREATE TABLE IF NOT EXISTS`` may have adopted a pre-existing table
        in a persistent file, so a file database streams them once, here
        at schema time; in-memory databases are always fresh and therefore
        facet-free.
        """
        if self._is_memory or not schema.has_column("jvars"):
            return ()
        return connection.execute(
            f'SELECT "jid", "jvars" FROM "{schema.name}" WHERE "jvars" != \'\''
        )

    def drop_table(self, name: str) -> None:
        with self._writing() as connection:
            connection.execute(f'DROP TABLE IF EXISTS "{name}"')
            connection.commit()
            dropped = self._schemas.pop(name, None) is not None
            self._row_decoders.pop(name, None)
            self._stored_columns.pop(name, None)
        if dropped:
            self._publish_schema_change(name)

    def has_table(self, name: str) -> bool:
        return name in self._schemas

    def schema(self, name: str) -> TableSchema:
        try:
            return self._schemas[name]
        except KeyError as exc:
            raise SchemaError(f"no such table {name!r}") from exc

    def table_names(self) -> List[str]:
        return sorted(self._schemas)

    # -- data manipulation ---------------------------------------------------------------

    def _prepare_row(self, schema: TableSchema, values: Dict[str, Any]) -> Dict[str, Any]:
        """Validate a row and drop an unassigned primary key."""
        row = schema.validate_row(values)
        pk_name = schema.primary_key.name
        if row.get(pk_name) is None:
            row.pop(pk_name, None)
        return row

    def _insert_one(
        self, connection: sqlite3.Connection, schema: TableSchema, table: str,
        row: Dict[str, Any],
    ) -> int:
        """Execute one INSERT on ``connection`` (no commit) and return the pk."""
        columns = list(row.keys())
        placeholders = ", ".join("?" for _ in columns)
        column_sql = ", ".join(f'"{name}"' for name in columns)
        statement = f'INSERT INTO "{table}" ({column_sql}) VALUES ({placeholders})'
        params = [self._encode(schema.column(name), row[name]) for name in columns]
        cursor = connection.execute(statement, params)
        return int(cursor.lastrowid)

    def insert(self, table: str, values: Dict[str, Any]) -> int:
        schema = self.schema(table)
        row = self._prepare_row(schema, values)
        started = self._write_started()
        with self._writing() as connection:
            pk = self._insert_one(connection, schema, table, row)
            connection.commit()
        self._end_write(
            table, started, lambda: ("INSERT", insert_summary(table, 1), (), 1), (row,)
        )
        return pk

    def insert_many(self, table: str, rows) -> List[int]:
        """Batch insert in one transaction, one invalidation event.

        Rows inserted together must share a column set for ``executemany``;
        heterogeneous batches fall back to row-at-a-time inside the same
        lock acquisition.
        """
        schema = self.schema(table)
        pk_name = schema.primary_key.name
        prepared = [self._prepare_row(schema, values) for values in rows]
        if not prepared:
            return []
        column_sets = {tuple(sorted(row.keys())) for row in prepared}
        # executemany cannot report per-row ids; only use it when the rows
        # are homogeneous and let SQLite assign every primary key, so the
        # assigned range is contiguous from MAX(rowid).
        batchable = len(column_sets) == 1 and not any(pk_name in row for row in prepared)
        pks: List[int] = []
        started = self._write_started()
        # The batch is one transaction (_writing rolls back on any failure),
        # so a half-inserted batch can neither linger uncommitted on the
        # connection nor be committed later by an unrelated write without an
        # invalidation event.
        with self._writing() as connection:
            if batchable:
                columns = list(prepared[0].keys())
                placeholders = ", ".join("?" for _ in columns)
                column_sql = ", ".join(f'"{name}"' for name in columns)
                statement = f'INSERT INTO "{table}" ({column_sql}) VALUES ({placeholders})'
                params = [
                    [self._encode(schema.column(name), row[name]) for name in columns]
                    for row in prepared
                ]
                connection.executemany(statement, params)
                # Ids are assigned contiguously ending at the new max:
                # we hold the write lock, so no writer interleaves.
                # (Counting down from the post-insert max is correct for
                # both AUTOINCREMENT and plain rowid allocation, unlike
                # pre-insert max + 1, which is wrong after deletions.)
                cursor = connection.execute("SELECT MAX(rowid) FROM " + f'"{table}"')
                after = int(cursor.fetchone()[0])
                connection.commit()
                pks = list(range(after - len(prepared) + 1, after + 1))
            else:
                for row in prepared:
                    pks.append(self._insert_one(connection, schema, table, row))
                connection.commit()
        self._end_write(
            table, started,
            lambda: ("INSERT", insert_summary(table, len(prepared)), (), len(prepared)),
            prepared,
        )
        return pks

    def execute_update(self, plan: UpdatePlan) -> int:
        """One ``UPDATE`` statement, rendered by sqlgen: a subselect-bearing
        WHERE (the record-key write pushdown) executes inline, exactly like
        a read, and commits before the write lock is released."""
        schema = self.schema(plan.table)
        encoded = {
            name: self._encode(schema.column(name), value)
            for name, value in plan.values.items()
        }
        statement, params = update_to_sql(UpdatePlan(plan.table, encoded, plan.where))
        started = self._write_started()
        with self._writing() as connection:
            cursor = connection.execute(statement, self._encode_params(params))
            connection.commit()
            count = cursor.rowcount
        self._end_write(
            plan.table, started, lambda: ("UPDATE", statement, params, count),
            (plan.values,), bool(count),
        )
        return count

    def execute_delete(self, plan: DeletePlan) -> int:
        """One ``DELETE`` statement, with any subselect inline."""
        statement, params = delete_to_sql(plan)
        started = self._write_started()
        with self._writing() as connection:
            cursor = connection.execute(statement, self._encode_params(params))
            connection.commit()
            count = cursor.rowcount
        self._end_write(
            plan.table, started, lambda: ("DELETE", statement, params, count),
            changed=bool(count),
        )
        return count

    def replace_rows(self, table: str, where: Optional[Expression], rows) -> List[int]:
        """Swap matching rows for ``rows`` in one committed transaction.

        WAL readers on other connections see the pre- or post-swap table,
        never the emptied middle state, and the invalidation bus fires once.
        """
        schema = self.schema(table)
        delete_statement, raw_params = delete_to_sql(DeletePlan(table, where))
        delete_params = self._encode_params(raw_params)
        prepared = [self._prepare_row(schema, values) for values in rows]
        pks: List[int] = []
        started = self._write_started()
        with self._writing() as connection:
            cursor = connection.execute(delete_statement, delete_params)
            deleted = cursor.rowcount
            for row in prepared:
                pks.append(self._insert_one(connection, schema, table, row))
            connection.commit()
        self._end_write(
            table, started,
            lambda: (
                "REPLACE", replace_summary(table, deleted, len(pks)), (),
                deleted + len(pks),
            ),
            prepared, bool(deleted or pks),
        )
        return pks

    # -- queries ------------------------------------------------------------------------------

    def execute(self, query: Query) -> List[Dict[str, Any]]:
        statement, params = query_to_sql(query, qualify=query.is_join())
        observing = self._observing()
        started = time.perf_counter() if observing else 0.0
        with self._reading() as connection:
            cursor = connection.execute(statement, self._encode_params(params))
            raw_rows = cursor.fetchall()
        if observing:
            self._notify_statement(
                "SELECT", statement, params, len(raw_rows),
                time.perf_counter() - started,
            )
        if query.aggregates:
            # Aggregate selections: the SELECT list carries explicit aliases
            # (group columns as spelled, aggregates by result_key), so the
            # row dicts already match the memory backend's keys.
            return [
                self._decode_aggregate_row(query, dict(row)) for row in raw_rows
            ]
        if query.is_join():
            columns = self._join_column_names(query)
            rows = [dict(zip(columns, tuple(row))) for row in raw_rows]
            # Joined rows decode by qualified name, with each table's decoders.
            decoders = [
                (f"{table}.{name}", decode)
                for table in [query.table] + [join.table for join in query.joins]
                for name, decode in self._row_decoders.get(table, ())
            ]
        else:
            decoders = self._row_decoders.get(query.table)
            if decoders is None:
                self.schema(query.table)  # raises SchemaError
            rows = [dict(row) for row in raw_rows]
        for name, decode in decoders:
            for row in rows:
                value = row.get(name)
                if value is not None:
                    row[name] = decode(value)
        return rows

    def explain_query(self, query: Query) -> Dict[str, Any]:
        """SQLite's own ``EXPLAIN QUERY PLAN`` rows for this query.

        The statement is only *prepared* (never run), no observer event is
        emitted, and the captured index DDL rides along so callers can see
        which declared indexes back the reported plan.
        """
        statement, params = query_to_sql(query, qualify=query.is_join())
        try:
            with self._reading() as connection:
                cursor = connection.execute(
                    "EXPLAIN QUERY PLAN " + statement, self._encode_params(params)
                )
                detail = [str(row[-1]) for row in cursor.fetchall()]
        except sqlite3.Error:  # pragma: no cover - explain is best-effort
            return {}
        return {"sqlite_plan": detail, "index_ddl": self.index_ddl()}

    def clear(self) -> None:
        with self._writing() as connection:
            for name in self._schemas:
                connection.execute(f'DELETE FROM "{name}"')
            connection.commit()
        self._publish_clear()

    def close(self) -> None:
        if self._shared_connection is not None:
            self._shared_connection.close()
        if self._pool is not None:
            self._pool.close_all()

    # -- encoding ---------------------------------------------------------------------------------

    @staticmethod
    def _encode(column: Column, value: Any) -> Any:
        if value is None:
            return None
        if column.type is ColumnType.BOOLEAN:
            return 1 if value else 0
        if column.type is ColumnType.DATETIME:
            return value.isoformat() if isinstance(value, datetime.datetime) else str(value)
        return value

    @staticmethod
    def _encode_params(params: List[Any]) -> List[Any]:
        encoded = []
        for value in params:
            if isinstance(value, bool):
                encoded.append(1 if value else 0)
            elif isinstance(value, datetime.datetime):
                encoded.append(value.isoformat())
            else:
                encoded.append(value)
        return encoded

    @staticmethod
    def _decode_value(column: Column, value: Any) -> Any:
        decode = _COLUMN_DECODERS.get(column.type)
        if value is None or decode is None:
            return value
        return decode(value)

    def _source_column(self, query: Query, name: str) -> Optional[Column]:
        """Resolve a (possibly qualified) column against the query's tables."""
        if "." in name:
            table, bare = name.rsplit(".", 1)
            tables = [table]
        else:
            bare = name
            tables = [query.table] + [join.table for join in query.joins]
        for table in tables:
            schema = self._schemas.get(table)
            if schema is not None and schema.has_column(bare):
                return schema.column(bare)
        return None

    def _decode_aggregate_row(self, query: Query, row: Dict[str, Any]) -> Dict[str, Any]:
        """Decode one aggregate-selection row to the memory backend's values.

        Group columns and MIN/MAX results decode through their source
        column's type (MIN/MAX return one of the stored values, so
        BOOLEAN/DATETIME columns decode exactly like a plain row read), and
        the stored 0/1 of ``EXISTS`` becomes a ``bool``.
        """
        for name in query.group_by:
            column = self._source_column(query, name)
            if column is not None:
                row[name] = self._decode_value(column, row.get(name))
        for aggregate in query.aggregates:
            function = aggregate.function.upper()
            key = aggregate.result_key()
            if function == "EXISTS":
                row[key] = bool(row[key])
            elif function in ("MIN", "MAX"):
                column = self._source_column(query, aggregate.column)
                if column is not None:
                    row[key] = self._decode_value(column, row.get(key))
        return row

    def _join_column_names(self, query: Query) -> List[str]:
        """Qualified output column names for a join query, in SELECT order.

        ``"T".*`` returns the table's stored columns, so a column the
        schema no longer declares keeps every later column under its own
        name.
        """
        requested = query.qualified_columns()
        if requested:
            return list(requested)
        names: List[str] = []
        for table in [query.table] + [join.table for join in query.joins]:
            self.schema(table)  # raises SchemaError
            names.extend(f"{table}.{name}" for name in self._stored_columns[table])
        return names


def _decode_datetime(value: Any) -> Any:
    return datetime.datetime.fromisoformat(value) if isinstance(value, str) else value


#: Column types stored in a different form than their Python values, and the
#: decoder turning a non-NULL stored value back into the Python value.
_COLUMN_DECODERS: Dict[ColumnType, Callable[[Any], Any]] = {
    ColumnType.BOOLEAN: bool,
    ColumnType.DATETIME: _decode_datetime,
}


def _row_decoder(schema: TableSchema) -> Tuple[Tuple[str, Callable[[Any], Any]], ...]:
    """The ``(column, decode)`` pairs a row of ``schema`` needs, built once per
    table so a read decodes only those columns instead of looking up the
    schema for every value."""
    return tuple(
        (column.name, _COLUMN_DECODERS[column.type])
        for column in schema.columns
        if column.type in _COLUMN_DECODERS
    )
