"""A pure-Python relational backend built on :class:`repro.db.table.Table`.

Thread safety: all table access -- reads included -- serialises on one
coarse re-entrant lock, so request worker threads can share a backend
without tearing the row dicts or index sets mid-scan.  Invalidation events
publish after the lock is released, once the written rows are visible, so
a cache stamp that counts a write is never taken before its rows can be
read.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Iterable, Iterator, List, Optional

from repro.db.backend import Backend
from repro.db.expr import Expression, column_value, resolve_subqueries, subquery_values
from repro.db.observe import insert_summary, replace_summary
from repro.db.query import (
    DeletePlan,
    Query,
    UpdatePlan,
    apply_limit,
    apply_order,
    compute_aggregate,
    dedupe_rows,
    dedupe_values,
    order_outside_selection,
    row_key,
)
from repro.db.schema import SchemaError, TableSchema
from repro.db.sqlgen import delete_to_sql, query_to_sql, update_to_sql
from repro.db.table import Table


class MemoryBackend(Backend):
    """Keeps every table in memory; useful for tests and fast benchmarks.

    ``use_indexes=False`` forces every read onto the full-scan path --
    the oracle configuration plan-parity fuzzing compares against; rendered
    SQL and all other observables are unchanged by the flag.
    """

    def __init__(self, use_indexes: bool = True) -> None:
        self._tables: Dict[str, Table] = {}
        self._lock = threading.RLock()
        self._use_indexes = use_indexes

    # -- schema management ---------------------------------------------------------

    def create_table(self, schema: TableSchema) -> None:
        with self._lock:
            if schema.name in self._tables:
                return
            table = Table(schema)
            table.use_indexes = self._use_indexes
            self._tables[schema.name] = table
        # A freshly created in-memory table is empty, hence facet-free.
        self._seed_facet_state(schema.name)
        self._publish_schema_change()

    def drop_table(self, name: str) -> None:
        with self._lock:
            dropped = self._tables.pop(name, None) is not None
        if dropped:
            self._publish_schema_change(name)

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def schema(self, name: str) -> TableSchema:
        return self._table(name).schema

    def table_names(self) -> List[str]:
        return sorted(self._tables)

    def _table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError as exc:
            raise SchemaError(f"no such table {name!r}") from exc

    # -- data manipulation -------------------------------------------------------------

    def insert(self, table: str, values: Dict[str, Any]) -> int:
        started = self._write_started()
        with self._lock:
            pk = self._table(table).insert(values)
        self._end_write(
            table, started, lambda: ("INSERT", insert_summary(table, 1), (), 1), (values,)
        )
        return pk

    def insert_many(self, table: str, rows) -> List[int]:
        """Batch insert: atomic, with one invalidation event for the batch.

        A mid-batch failure removes the rows already inserted (mirroring the
        SQLite backend's transaction rollback), so a record expanded into
        several facet rows is either fully present or fully absent.
        """
        started = self._write_started()
        written: List[Dict[str, Any]] = []
        with self._lock:
            target = self._table(table)
            pks: List[int] = []
            try:
                for row in rows:
                    written.append(row)
                    pks.append(target.insert(row))
            except BaseException:
                for pk in pks:
                    target.remove(pk)
                raise
        self._end_write(
            table, started,
            lambda: ("INSERT", insert_summary(table, len(pks)), (), len(pks)),
            written, bool(pks),
        )
        return pks

    def execute_update(self, plan: UpdatePlan) -> int:
        """One logical write for an :class:`~repro.db.query.UpdatePlan`.

        The plan's record-key subselect materialises and the matching rows
        mutate under a single hold of the backend lock
        (:meth:`_resolve_expression` resolves subqueries before the scan),
        so a concurrent reader observes the table before or after the whole
        set-oriented write -- mirroring the one statement SQLite executes.
        The resolved ``key IN (...)`` list is narrowed by the table's hash
        index (see :meth:`Table.matching_rows`), keeping the mutation
        O(matches) instead of O(table).  :meth:`Table.update` coerces the
        SET values before it touches a row, so a failing statement changes
        nothing, and it maintains only the indexes on assigned columns.
        An observer receives the SQL this write *would* be, subselects
        inline, exactly as the SQLite backend sends it.
        """
        started = self._write_started()
        with self._lock:
            count = self._table(plan.table).update(
                self._resolve_expression(plan.where), plan.values
            )
        self._end_write(
            plan.table, started, lambda: ("UPDATE", *update_to_sql(plan), count),
            (plan.values,), bool(count),
        )
        return count

    def execute_delete(self, plan: DeletePlan) -> int:
        """One logical write for a :class:`~repro.db.query.DeletePlan`.

        Same contract as :meth:`execute_update`: subselect resolution,
        index narrowing and row removal share one lock hold and publish a
        single invalidation event.
        """
        started = self._write_started()
        with self._lock:
            count = self._table(plan.table).delete(self._resolve_expression(plan.where))
        self._end_write(
            plan.table, started, lambda: ("DELETE", *delete_to_sql(plan), count),
            changed=bool(count),
        )
        return count

    def replace_rows(self, table: str, where: Optional[Expression], rows) -> List[int]:
        """Swap matching rows for ``rows`` under one lock hold, atomically.

        Readers serialise on the same lock, so they observe the table before
        or after the swap, never the emptied middle state.  On any insert
        failure the swap is rolled back (inserted rows removed, deleted rows
        restored), matching the SQLite backend's transaction semantics.
        """
        started = self._write_started()
        written: List[Dict[str, Any]] = []
        with self._lock:
            target = self._table(table)
            replaced = target.matching_rows(self._resolve_expression(where))
            pk_name = target.schema.primary_key.name
            for old_row in replaced:
                target.remove(old_row[pk_name])
            pks: List[int] = []
            try:
                for row in rows:
                    written.append(row)
                    pks.append(target.insert(row))
            except BaseException:
                for pk in pks:
                    target.remove(pk)
                for old_row in replaced:
                    target.insert(old_row)
                raise
        self._end_write(
            table, started,
            lambda: (
                "REPLACE", replace_summary(table, len(replaced), len(pks)), (),
                len(replaced) + len(pks),
            ),
            written, bool(replaced or pks),
        )
        return pks

    # -- queries --------------------------------------------------------------------------

    def execute(self, query: Query) -> List[Dict[str, Any]]:
        if not self._observing():
            return self._execute_query(query)
        # Render the SQL this read *would* be (subselects inline) before the
        # engine materialises them, so both backends report identical text.
        statement, params = query_to_sql(query, qualify=query.is_join())
        started = time.perf_counter()
        rows = self._execute_query(query)
        self._notify_statement(
            "SELECT", statement, params, len(rows), time.perf_counter() - started
        )
        return rows

    def _execute_query(self, query: Query) -> List[Dict[str, Any]]:
        if query.aggregates:
            if query.aggregates[0].function.upper() == "EXISTS":
                return [{"EXISTS": self._exists(query)}]
            return self._aggregate_rows(query)
        columns = query.qualified_columns() if query.is_join() else query.columns
        with self._lock:
            where = self._resolved_where(query)
            if query.distinct and not query.order_by:
                # Unordered distinct (the record-key subquery of the bounded
                # and write pushdowns): stream filter -> dedupe, with an
                # early exit at limit+offset distinct rows when bounded.
                # The scan reads the live rows: a projection builds fresh
                # dicts, and an unprojected distinct copies only the rows
                # it keeps.
                source = self._source_rows(query, where)
                predicate = None if where is None else where.compile()
                matching = (
                    row for row in source if predicate is None or predicate(row)
                )
                stop_after = (
                    query.limit + query.offset if query.limit is not None else None
                )
                if columns and len(columns) == 1:
                    # One column: dedupe on the value, then build one
                    # {column: value} row per distinct value.
                    name = columns[0]
                    values = dedupe_values(
                        (
                            row[name] if name in row else column_value(row, name, None)
                            for row in matching
                        ),
                        stop_after,
                    )
                    rows = [{name: value} for value in values]
                elif columns:
                    rows = dedupe_rows(
                        (self._pick_columns(row, columns) for row in matching),
                        stop_after=stop_after,
                    )
                else:
                    rows = [
                        dict(row)
                        for row in dedupe_rows(matching, stop_after=stop_after)
                    ]
                return rows[query.offset:] if query.offset else rows
            if not query.is_join() and not query.distinct and query.order_by:
                # Ask the cost model whether an ordered index can serve the
                # ORDER BY directly: rows then stream out pre-sorted with an
                # early exit at offset+limit matches, no sort pass at all.
                table = self._table(query.table)
                choice = table.plan(where, query.order_by, query.limit, query.offset)
                table.last_plan = choice
                if choice.chosen.serves_order:
                    rows = self._serve_in_order(table, choice.chosen, where, query)
                    if columns:
                        rows = [self._pick_columns(row, columns) for row in rows]
                    return rows
            rows = self._matching_rows(query, where)
            if not query.is_join():
                # Copy only the matches: they outlive the lock.
                rows = [dict(row) for row in rows]
        if order_outside_selection(query):
            # Ordered distinct over non-selected columns: evaluate in the
            # same grouped MIN/MAX form sqlgen renders, so both backends
            # keep identical keys under a LIMIT (see order_outside_selection).
            rows = self._grouped_distinct(rows, query, columns)
            return apply_limit(rows, query.limit, query.offset)
        rows = apply_order(rows, query.order_by)
        if query.distinct:
            # SQL semantics: project, deduplicate, then LIMIT/OFFSET -- the
            # order a distinct-limited pushdown subquery depends on.
            if columns:
                rows = [self._pick_columns(row, columns) for row in rows]
            stop_after = (
                query.limit + query.offset if query.limit is not None else None
            )
            rows = dedupe_rows(rows, stop_after=stop_after)
            rows = apply_limit(rows, query.limit, query.offset)
        else:
            rows = apply_limit(rows, query.limit, query.offset)
            if columns:
                rows = [self._pick_columns(row, columns) for row in rows]
        return rows

    def _exists(self, query: Query) -> bool:
        """The ``SELECT EXISTS(...)`` probe, with an early exit.

        Stops scanning the index-narrowed candidates once enough matches
        are seen, like the database behind the probe.  LIMIT/OFFSET stay
        inside the SQL subselect, so they are honoured here too: the window
        is non-empty iff more than ``offset`` rows match (and the limit
        allows at least one row through).
        """
        if query.limit is not None and query.limit <= 0:
            return False
        with self._lock:
            where = self._resolved_where(query)
            source = self._source_rows(query, where)
            predicate = None if where is None else where.compile()
            needed = query.offset + 1
            for row in source:
                if predicate is None or predicate(row):
                    needed -= 1
                    if needed == 0:
                        return True
            return False

    def _aggregate_rows(self, query: Query) -> List[Dict[str, Any]]:
        """Grouped aggregate selections: one result row per group.

        Result rows are keyed by the group columns (exactly as spelled in
        ``query.group_by``) plus each aggregate's ``result_key()`` --
        matching the aliases the SQL generator emits, so both backends
        return identical rows.  With no GROUP BY the whole match set is one
        group (SQL semantics: always exactly one result row).
        """
        # Grouped aggregates read live rows and reduce entirely under the
        # lock (result rows are fresh dicts, so nothing live escapes).
        with self._lock:
            rows = self._matching_rows(query, self._resolved_where(query))
            grouped: Dict[tuple, List[Dict[str, Any]]] = {}
            if not query.group_by:
                # The whole match set is the one group: no per-row key.
                grouped[()] = rows
            elif len(query.group_by) == 1:
                # Hot path (the FORM groups by one jvars column): scalar
                # keys, no per-row tuple construction.
                column = query.group_by[0]
                keyed: Dict[Any, List[Dict[str, Any]]] = {}
                for row in rows:
                    key = row[column] if column in row else column_value(row, column, None)
                    keyed.setdefault(key, []).append(row)
                grouped = {(key,): group for key, group in keyed.items()}
            else:
                for row in rows:
                    key = tuple(
                        column_value(row, column, None) for column in query.group_by
                    )
                    grouped.setdefault(key, []).append(row)
            result = []
            for key, group in grouped.items():
                out: Dict[str, Any] = dict(zip(query.group_by, key))
                for aggregate in query.aggregates:
                    out[aggregate.result_key()] = compute_aggregate(group, aggregate)
                result.append(out)
        result = apply_order(result, query.order_by)
        return apply_limit(result, query.limit, query.offset)

    def _serve_in_order(self, table: Table, path, where, query: Query):
        """Stream an order-serving access path: filter, stop early, copy.

        The path hands back candidates already in ORDER BY order (the
        planner only claims ``serves_order`` when the index's order is
        scan-identical, NULL placement and tie-breaks included), so the
        first ``offset + limit`` matches *are* the result window.
        """
        if query.limit is not None and query.limit <= 0:
            return []
        rows, exact = table.rows_for_path(path, copy=False)
        stop = None if query.limit is None else query.limit + query.offset
        predicate = None if where is None else where.compile()
        matched: List[Dict[str, Any]] = []
        for row in rows:
            if exact or predicate is None or predicate(row):
                matched.append(dict(row))
                if stop is not None and len(matched) >= stop:
                    break
        return matched[query.offset:] if query.offset else matched

    def _source_rows(self, query: Query, where) -> Iterable[Dict[str, Any]]:
        """The FROM/JOIN row set, narrowed by an index when possible.

        For single-table queries an indexed equality / IN / IS NULL filter
        (e.g. the resolved ``jid IN (...)`` of a bounded pushdown) reads the
        index buckets instead of the whole heap -- the memory backend's
        answer to SQLite walking its B-tree index.  Single-table rows are
        the live row dicts, and joined rows stream (:meth:`_join_rows`),
        for callers that filter them as they go (to stop early) under the
        lock.
        """
        if not query.is_join():
            return self._table(query.table).candidate_rows(where)
        return self._join_rows(query)

    def _matching_rows(self, query: Query, where) -> List[Dict[str, Any]]:
        """The FROM/JOIN rows matching ``where``.

        A single-table read takes the table's live rows from
        :meth:`Table.matching_rows` (no predicate work on an exact index
        path); callers hold the lock and copy any row that escapes it.
        Joined rows are fresh dicts, filtered here.
        """
        if not query.is_join():
            return self._table(query.table).matching_rows(where)
        rows = self._join_rows(query)
        if where is None:
            return list(rows)
        predicate = where.compile()
        return [row for row in rows if predicate(row)]

    def explain_query(self, query: Query) -> Dict[str, Any]:
        """The access path the cost model chooses for this query, unexecuted.

        Single-table reads report ``chosen_plan`` / ``considered_plans``
        (the same :func:`repro.db.planner.choose_plan` call the executor
        makes, over live statistics, so explain == execution); joins scan.
        Subqueries are left unresolved -- planning must not execute them.
        """
        if query.is_join() or not self.has_table(query.table):
            return {}
        with self._lock:
            table = self._table(query.table)
            # Subqueries stay unresolved (planning never executes them): an
            # InSubquery conjunct simply contributes no probe, while sibling
            # conjuncts still plan exactly as execution will.
            choice = table.plan(
                query.where, query.order_by, query.limit, query.offset
            )
        return choice.describe()

    def last_plan(self, table: str):
        """The :class:`~repro.db.planner.PlanChoice` behind the most recent
        planned read of ``table`` (test/debug introspection)."""
        return self._table(table).last_plan

    def clear(self) -> None:
        with self._lock:
            for table in self._tables.values():
                table.clear()
        self._publish_clear()

    # -- internals ---------------------------------------------------------------------------

    def _resolved_where(self, query: Query):
        """The query's where clause with subqueries materialised."""
        return self._resolve_expression(query.where)

    def _resolve_expression(self, where: Optional[Expression]) -> Optional[Expression]:
        """Materialise any subqueries nested in a where expression.

        Used by reads *and* writes (SQLite renders subselects inline in
        UPDATE/DELETE too, and the backends must agree on every shape).
        Runs under the backend lock (re-entrant), so the subquery and the
        outer scan observe the same table snapshot -- mirroring the single
        SQL statement the SQLite backend issues.
        """
        if where is None or not where.subqueries():
            return where
        # _execute_query, not execute: the subquery is part of the *one*
        # statement being observed (SQLite renders it inline), so it must
        # not report a second event of its own.
        return resolve_subqueries(
            where,
            lambda subquery: subquery_values(self._execute_query(subquery), subquery),
        )

    def _grouped_distinct(
        self, rows: List[Dict[str, Any]], query: Query, columns
    ) -> List[Dict[str, Any]]:
        """``GROUP BY selected ORDER BY MIN/MAX(order column), selected``.

        The deterministic semantics of an ordered distinct subquery: group
        rows by their projection, order groups by the per-group MIN of each
        ascending term (MAX for descending), tie-break on the projected
        values themselves.  Matches the SQL sqlgen renders for the same
        query, so the jid sets a bounded query keeps are backend-identical.
        """
        groups: Dict[Any, list] = {}
        ordered_keys: List[Any] = []
        for row in rows:
            projected = self._pick_columns(row, columns)
            key = row_key(projected)
            entry = groups.get(key)
            if entry is None:
                entry = groups[key] = [projected, [[] for _ in query.order_by]]
                ordered_keys.append(key)
            for index, order in enumerate(query.order_by):
                entry[1][index].append(column_value(row, order.column, None))
        items = [groups[key] for key in ordered_keys]
        # Stable sorts from the last criterion to the first: tie-break on
        # the projected values, then each order term (None-safe, mirroring
        # apply_order's convention).
        items.sort(
            key=lambda item: tuple(
                (item[0][name] is None, item[0][name]) for name in columns
            )
        )
        for index, order in reversed(list(enumerate(query.order_by))):
            def sort_key(item, index=index, order=order):
                values = [v for v in item[1][index] if v is not None]
                if not values:
                    return (True, None)
                aggregate = min(values) if order.ascending else max(values)
                return (False, aggregate)

            items.sort(key=sort_key, reverse=not order.ascending)
        return [item[0] for item in items]

    def _join_rows(self, query: Query) -> Iterator[Dict[str, Any]]:
        """Stream the FROM/JOIN rows of a joined query, in base-row order.

        Each joined table is hashed on its join column first; the base rows
        then pass through the joins one at a time, so a reader that stops
        early (:meth:`_exists`) joins no more base rows than it scans.
        Joined rows are fresh dicts with qualified keys (``Table.column``),
        matching the SQLite backend.  A NULL key is left out of the hash, so
        it matches nothing on either side, as SQL's ``=`` never matches NULL.
        """
        probes = []
        for join in query.joins:
            right_key = self._qualify_name(join.table, join.right_column)
            index: Dict[Any, List[Dict[str, Any]]] = {}
            for row in self._table(join.table):
                other = self._qualify(join.table, row)
                key = other.get(right_key)
                if key is not None:
                    index.setdefault(key, []).append(other)
            probes.append((self._qualify_name(query.table, join.left_column), index))
        for base_row in self._table(query.table):
            rows = [self._qualify(query.table, base_row)]
            for left_key, index in probes:
                rows = [
                    {**row, **match}
                    for row in rows
                    for match in index.get(row.get(left_key), ())
                ]
            yield from rows

    @staticmethod
    def _qualify(table: str, row: Dict[str, Any]) -> Dict[str, Any]:
        return {f"{table}.{name}": value for name, value in row.items()}

    @staticmethod
    def _qualify_name(table: str, column: str) -> str:
        return column if "." in column else f"{table}.{column}"

    @staticmethod
    def _pick_columns(row: Dict[str, Any], columns) -> Dict[str, Any]:
        picked = {}
        for name in columns:
            if name in row:
                picked[name] = row[name]
            elif "." in name and name.rsplit(".", 1)[-1] in row:
                picked[name] = row[name.rsplit(".", 1)[-1]]
            else:
                picked[name] = None
        return picked
