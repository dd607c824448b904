"""Query descriptions: selects, joins, ordering and aggregates.

A :class:`Query` is a declarative description executed by a backend.  Joins
produce rows whose keys are qualified (``"Table.column"``) so that columns
with the same name in different tables do not collide -- exactly what the
FORM needs when it adds ``jvars`` columns from every joined table (Table 2).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.db.expr import Expression, column_value


@dataclass(frozen=True)
class Join:
    """An inner join clause: ``JOIN table ON left_column = right_column``."""

    table: str
    left_column: str
    right_column: str


@dataclass(frozen=True)
class Order:
    """An ORDER BY term."""

    column: str
    ascending: bool = True


@dataclass(frozen=True)
class Aggregate:
    """An aggregate computation over a column.

    ``COUNT``, ``SUM``, ``AVG``, ``MIN`` and ``MAX`` follow SQL's NULL
    rules on both backends: NULL values are skipped, ``COUNT`` of no
    values is 0, and every other function over no values is NULL.
    ``distinct`` selects ``COUNT(DISTINCT column)`` and friends -- the
    record-counting form of the FORM's ``count()`` pushdown, where one
    logical record spans several facet rows sharing a ``jid``.
    ``EXISTS`` is the whole-query membership test (``SELECT EXISTS(...)``);
    it takes no column and is the only aggregate of its selection.

    >>> Aggregate("COUNT", "jid", distinct=True).result_key()
    'COUNT(DISTINCT jid)'
    >>> Aggregate("EXISTS").result_key()
    'EXISTS'
    """

    function: str
    column: str = "*"
    distinct: bool = False

    def __post_init__(self) -> None:
        function = self.function.upper()
        if function not in {"COUNT", "SUM", "AVG", "MIN", "MAX", "EXISTS"}:
            raise ValueError(f"unknown aggregate function {self.function!r}")
        if self.distinct and self.column == "*":
            raise ValueError("DISTINCT aggregates need an explicit column")
        if function == "EXISTS" and (self.distinct or self.column != "*"):
            raise ValueError("EXISTS takes neither a column nor DISTINCT")

    def result_key(self) -> str:
        """The result-row key (and SQL alias) of this aggregate selection.

        Both backends name an aggregate's output column exactly like this,
        so grouped aggregate rows are backend-identical.

        >>> Aggregate("SUM", "score").result_key()
        'SUM(score)'
        """
        function = self.function.upper()
        if function == "EXISTS":
            return "EXISTS"
        prefix = "DISTINCT " if self.distinct else ""
        return f"{function}({prefix}{self.column})"


@dataclass(frozen=True)
class Query:
    """A declarative select query against one table plus optional joins.

    Queries are immutable; every builder returns a new query.

    >>> from repro.db.expr import eq
    >>> q = Query("Paper").filter(eq("accepted", True)).ordered_by("title")
    >>> q.limit is None and not q.distinct
    True
    """

    table: str
    columns: Optional[Tuple[str, ...]] = None
    where: Optional[Expression] = None
    joins: Tuple[Join, ...] = ()
    order_by: Tuple[Order, ...] = ()
    limit: Optional[int] = None
    offset: int = 0
    group_by: Tuple[str, ...] = ()
    #: SELECT DISTINCT: deduplicate result rows (after column projection).
    distinct: bool = False
    #: Aggregate *selections*: ``SELECT group_by..., AGG1, AGG2 ... GROUP BY
    #: group_by`` executed through :meth:`Backend.execute`, one result row
    #: per group keyed by the group columns plus each aggregate's
    #: ``result_key()``; without GROUP BY, one row.  The only aggregate
    #: form: the FORM's per-jvars-partition aggregates ride on it, and
    #: :meth:`Backend.aggregate` reads the value of a one-aggregate one.
    aggregates: Tuple[Aggregate, ...] = ()

    def __post_init__(self) -> None:
        # EXISTS probes the whole query (SELECT EXISTS(SELECT 1 ...)), so
        # it has no grouped or multi-aggregate form: both backends reject
        # such a selection here, where it is built.
        if self.aggregates and (len(self.aggregates) > 1 or self.group_by) and any(
            aggregate.function.upper() == "EXISTS" for aggregate in self.aggregates
        ):
            raise ValueError(
                "EXISTS must be a selection's only aggregate, without GROUP BY"
            )

    # -- fluent builders --------------------------------------------------------------

    def select(self, *columns: str) -> "Query":
        """Restrict the result to the named columns.

        >>> Query("Paper").select("jid", "title").columns
        ('jid', 'title')
        """
        return replace(self, columns=tuple(columns) if columns else None)

    def filter(self, expression: Expression) -> "Query":
        """AND a where-clause expression onto the query.

        >>> from repro.db.expr import eq
        >>> Query("Paper").filter(eq("accepted", True)).where is not None
        True
        """
        from repro.db.expr import AndExpr

        combined = expression if self.where is None else AndExpr(self.where, expression)
        return replace(self, where=combined)

    def join(self, table: str, left_column: str, right_column: str) -> "Query":
        """Add an inner join: ``JOIN table ON base.left = table.right``.

        >>> Query("Paper").join("ConfUser", "author", "jid").is_join()
        True
        """
        return replace(self, joins=self.joins + (Join(table, left_column, right_column),))

    def ordered_by(self, column: str, ascending: bool = True) -> "Query":
        """Append an ORDER BY term (stable across multiple calls).

        >>> Query("Paper").ordered_by("title", ascending=False).order_by
        (Order(column='title', ascending=False),)
        """
        return replace(self, order_by=self.order_by + (Order(column, ascending),))

    def limited(self, limit: int, offset: int = 0) -> "Query":
        """Bound the result to ``limit`` rows, skipping ``offset`` first.

        >>> Query("Paper").limited(5, offset=10).offset
        10
        """
        return replace(self, limit=limit, offset=offset)

    def distinct_rows(self) -> "Query":
        """SELECT DISTINCT: drop duplicate result rows.

        The building block of the bounded-query pushdown: a distinct
        single-column select of record identifiers with LIMIT applied
        *inside* a subquery (see :meth:`in_subquery`).

        >>> Query("Paper").select("jid").distinct_rows().distinct
        True
        """
        return replace(self, distinct=True)

    def in_subquery(self, column: str, subquery: "Query") -> "Query":
        """Filter by membership in a nested single-column select.

        Renders as ``WHERE column IN (SELECT ... )`` on SQL backends; the
        in-memory engine materialises the subquery before scanning.

        >>> sub = Query("Paper").select("jid").distinct_rows().limited(2)
        >>> bounded = Query("Paper").in_subquery("jid", sub)
        >>> [type(e).__name__ for e in bounded.where.subqueries()]
        ['Query']
        """
        from repro.db.expr import InSubquery, ColumnRef

        return self.filter(InSubquery(ColumnRef(column), subquery))

    def select_aggregates(self, *aggregates: Aggregate) -> "Query":
        """Select aggregate computations as result columns (grouped rows).

        Combined with :meth:`grouped_by`, executes as one ``SELECT
        group..., AGG... GROUP BY group`` statement returning a row per
        group; each aggregate's value is keyed by its
        :meth:`Aggregate.result_key`.

        >>> q = (Query("Paper").select_aggregates(Aggregate("COUNT"))
        ...      .grouped_by("jvars"))
        >>> [a.result_key() for a in q.aggregates]
        ['COUNT(*)']
        >>> Query("Paper").select_aggregates(Aggregate("EXISTS")).grouped_by("jvars")
        Traceback (most recent call last):
            ...
        ValueError: EXISTS must be a selection's only aggregate, without GROUP BY
        """
        return replace(self, aggregates=tuple(aggregates))

    def grouped_by(self, *columns: str) -> "Query":
        """GROUP BY for aggregate queries.

        >>> Query("Paper").select_aggregates(Aggregate("COUNT")).grouped_by("author").group_by
        ('author',)
        """
        return replace(self, group_by=tuple(columns))

    # -- helpers ------------------------------------------------------------------------

    def is_join(self) -> bool:
        """Whether the query joins at least one other table."""
        return bool(self.joins)

    def qualified_columns(self) -> Optional[Tuple[str, ...]]:
        """Requested columns qualified with the base table when unqualified.

        >>> Query("Paper", columns=("jid", "ConfUser.name")).qualified_columns()
        ('Paper.jid', 'ConfUser.name')
        """
        if self.columns is None:
            return None
        qualified = []
        for name in self.columns:
            qualified.append(name if "." in name else f"{self.table}.{name}")
        return tuple(qualified)

    def tables_read(self) -> Tuple[str, ...]:
        """Every table this query reads: base, joins and nested subqueries.

        The query cache stamps a cached result with the write generation of
        each of these, so a write to a table only referenced inside a
        subquery still makes the entry a miss.

        >>> sub = Query("Paper").join("Review", "jid", "paper").select("jid")
        >>> Query("Paper").in_subquery("jid", sub).tables_read()
        ('Paper', 'Review')
        """
        tables = [self.table]
        tables.extend(join.table for join in self.joins)
        if self.where is not None:
            for subquery in self.where.subqueries():
                tables.extend(subquery.tables_read())
        seen: Dict[str, None] = dict.fromkeys(tables)
        return tuple(seen)

    def explain(self) -> Dict[str, Any]:
        """The plan shape and rendered SQL of this query, without executing.

        The SQL is exactly what a backend reports through the statement
        observer when the query runs.  Plan shapes: ``grouped-aggregate``
        (any aggregate selection), ``key-subselect`` (a record-key pushdown
        subselect in the WHERE) or ``scan``.

        >>> from repro.db.expr import eq
        >>> plan = plan_bounded(Query("Paper").filter(eq("ok", True)), "jid", 2).explain()
        >>> plan["plan"]
        'key-subselect'
        >>> plan["sql"]
        'SELECT * FROM "Paper" WHERE (ok = ? AND jid IN (SELECT DISTINCT "jid" FROM "Paper" WHERE ok = ? LIMIT 2))'
        >>> Query("Paper").select_aggregates(Aggregate("COUNT")).explain()["plan"]
        'grouped-aggregate'
        """
        from repro.db.sqlgen import query_to_sql

        if self.aggregates:
            plan = "grouped-aggregate"
        elif self.where is not None and self.where.subqueries():
            plan = "key-subselect"
        else:
            plan = "scan"
        sql, params = query_to_sql(self, qualify=self.is_join())
        return {
            "plan": plan,
            "sql": sql,
            "params": list(params),
            "tables": list(self.tables_read()),
        }


def order_outside_selection(query: "Query") -> bool:
    """Whether a distinct query orders by columns outside its select list.

    Such a query is ambiguous as plain ``SELECT DISTINCT ... ORDER BY``:
    SQLite sorts each distinct value by an *arbitrary* representative row,
    so two backends (or two SQLite runs) may disagree on *which* keys a
    LIMIT keeps.  Both backends therefore evaluate it in the grouped form
    -- ``GROUP BY key ORDER BY MIN(col)`` (``MAX`` for descending), with
    the key itself as the final tie-break -- which is deterministic and
    identical across backends.

    >>> q = Query("T").select("jid").distinct_rows().ordered_by("title")
    >>> order_outside_selection(q)
    True
    >>> order_outside_selection(Query("T").select("jid").distinct_rows().ordered_by("jid"))
    False
    """
    if not (query.distinct and query.columns and query.order_by):
        return False
    if query.group_by or query.aggregates:
        return False
    selected = set(query.columns) | set(query.qualified_columns() or ())
    bare = {name.rsplit(".", 1)[-1] for name in selected}
    for order in query.order_by:
        if order.column in selected:
            continue
        # An *unqualified* order column matching a selected column's bare
        # name resolves to the select list.  A qualified one must match
        # literally: "ConfUser.jid" is NOT the selected "Paper.jid" even
        # though the bare names agree.
        if "." not in order.column and order.column in bare:
            continue
        return True
    return False


def plan_bounded(
    query: "Query", key_column: str, limit: Optional[int], offset: int = 0
) -> "Query":
    """Compile a bounded query to the key-subselect pushdown form.

    A raw SQL ``LIMIT`` on a faceted (or joined) query counts *rows*, but one
    logical record spans several rows -- one per facet for the FORM, one per
    join match for the baseline -- so a row bound could truncate a record to
    a subset of its facets or undercount records.  Instead, the bound is
    pushed into a subquery that selects the first ``limit`` DISTINCT record
    keys under the query's own filters, joins and ordering; the outer query
    then fetches every row of exactly those records::

        WHERE "T"."jid" IN (SELECT DISTINCT "T"."jid" FROM ...
                            ORDER BY ... LIMIT n OFFSET m)

    ``key_column`` is the record identity -- ``jid`` for the FORM, ``id``
    for the baseline ORM -- qualified automatically under joins.

    >>> q = plan_bounded(Query("Paper"), "jid", 5)
    >>> from repro.db.sqlgen import query_to_sql
    >>> query_to_sql(q)[0]
    'SELECT * FROM "Paper" WHERE jid IN (SELECT DISTINCT "jid" FROM "Paper" LIMIT 5)'
    """
    if "." not in key_column and query.is_join():
        key_column = f"{query.table}.{key_column}"
    subquery = replace(
        query, columns=(key_column,), distinct=True, limit=limit, offset=offset
    )
    # Strip any row-level limit from the outer query: the record bound lives
    # in the subquery, and a leftover outer LIMIT would count raw facet/join
    # rows -- the truncation bug this planner exists to prevent.
    outer = replace(query, limit=None, offset=0)
    return outer.in_subquery(key_column, subquery)


@dataclass(frozen=True)
class UpdatePlan:
    """A set-oriented ``UPDATE table SET values WHERE where`` description.

    The write analogue of a read :class:`Query`: declarative, backend-agnostic
    and executed in one statement by :meth:`Backend.execute_update`.  ``where``
    may carry an :class:`~repro.db.expr.InSubquery` (the record-key pushdown
    built by :func:`plan_update`); SQL backends render it inline, the memory
    engine materialises it under its lock.

    >>> from repro.db.expr import eq
    >>> plan = UpdatePlan("Paper", {"accepted": True}, eq("author", "ada"))
    >>> plan.tables_read()
    ('Paper',)
    """

    table: str
    values: Dict[str, Any]
    where: Optional[Expression] = None

    def tables_read(self) -> Tuple[str, ...]:
        """Every table this write *reads*: the target plus subselect tables."""
        return _write_tables_read(self.table, self.where)

    def explain(self) -> Dict[str, Any]:
        """Plan shape and rendered SQL of this write, without executing.

        >>> from repro.db.expr import eq
        >>> UpdatePlan("Paper", {"ok": True}, eq("ok", False)).explain()["sql"]
        'UPDATE "Paper" SET "ok" = ? WHERE ok = ?'
        """
        from repro.db.sqlgen import update_to_sql

        sql, params = update_to_sql(self)
        pushdown = self.where is not None and bool(self.where.subqueries())
        return {
            "plan": "update-pushdown" if pushdown else "update",
            "sql": sql,
            "params": list(params),
            "tables": list(self.tables_read()),
        }


@dataclass(frozen=True)
class DeletePlan:
    """A set-oriented ``DELETE FROM table WHERE where`` description.

    >>> from repro.db.expr import eq
    >>> DeletePlan("Paper", eq("accepted", False)).table
    'Paper'
    """

    table: str
    where: Optional[Expression] = None

    def tables_read(self) -> Tuple[str, ...]:
        """Every table this write *reads*: the target plus subselect tables."""
        return _write_tables_read(self.table, self.where)

    def explain(self) -> Dict[str, Any]:
        """Plan shape and rendered SQL of this write, without executing.

        >>> DeletePlan("Paper").explain()["plan"]
        'delete'
        """
        from repro.db.sqlgen import delete_to_sql

        sql, params = delete_to_sql(self)
        pushdown = self.where is not None and bool(self.where.subqueries())
        return {
            "plan": "delete-pushdown" if pushdown else "delete",
            "sql": sql,
            "params": list(params),
            "tables": list(self.tables_read()),
        }


def _write_tables_read(table: str, where: Optional[Expression]) -> Tuple[str, ...]:
    tables = [table]
    if where is not None:
        for subquery in where.subqueries():
            tables.extend(subquery.tables_read())
    return tuple(dict.fromkeys(tables))


def plan_keys(query: "Query", key_column: str) -> "Query":
    """Project a read query to its DISTINCT record keys.

    Keeps the query's filters and joins, selects only ``key_column``
    (qualified under joins) and deduplicates.  A *bounded* query keeps its
    ordering and LIMIT/OFFSET -- the same subquery shape
    :func:`plan_bounded` nests -- so the keys are exactly the records the
    bound selects; an unbounded query drops the ordering (row order cannot
    change a key set).

    This is both the subselect nested by :func:`plan_update` /
    :func:`plan_delete` and the one-statement "collect matching jids"
    projection the FORM's slow write path runs instead of unmarshalling
    full instances.

    >>> from repro.db.expr import eq
    >>> from repro.db.sqlgen import query_to_sql
    >>> q = Query("Paper").filter(eq("accepted", True)).ordered_by("title")
    >>> query_to_sql(plan_keys(q, "jid"))[0]
    'SELECT DISTINCT "jid" FROM "Paper" WHERE accepted = ?'
    >>> query_to_sql(plan_keys(q.limited(5), "jid"))[0]
    'SELECT "jid" FROM "Paper" WHERE accepted = ? GROUP BY "jid" ORDER BY (MIN("title") IS NULL) ASC, MIN("title") ASC, "jid" ASC LIMIT 5'
    """
    if "." not in key_column and query.is_join():
        key_column = f"{query.table}.{key_column}"
    bounded = query.limit is not None or bool(query.offset)
    return replace(
        query,
        columns=(key_column,),
        distinct=True,
        order_by=query.order_by if bounded else (),
        aggregates=(),
        group_by=(),
    )


def _plan_write_where(query: "Query", key_column: Optional[str]) -> Optional[Expression]:
    """The WHERE clause of a set-oriented write compiled from a read query.

    With a ``key_column`` the filters are pushed through the same
    ``key IN (SELECT DISTINCT key ...)`` machinery as :func:`plan_bounded`:
    the write then affects *whole records* -- every row sharing a matched
    key -- which is what faceted tables need (a filter may match only one
    facet row of a record, but the write must cover all of them), and the
    only way a joined or bounded filter can reach a single-table
    UPDATE/DELETE at all.  Without one, the filters apply row-by-row
    (the baseline ORM's single-row-per-record case).
    """
    from repro.db.expr import ColumnRef, InSubquery

    bounded = query.limit is not None or bool(query.offset)
    if key_column is None:
        if query.is_join() or bounded:
            raise ValueError(
                "joined or bounded write plans need a key column to push "
                "their filters through a subselect"
            )
        return query.where
    if query.where is None and not query.is_join() and not bounded:
        # Every row of every record matches: the subselect would be a no-op.
        return None
    subquery = plan_keys(query, key_column)
    return InSubquery(ColumnRef(key_column.rsplit(".", 1)[-1]), subquery)


def plan_update(
    query: "Query", values: Dict[str, Any], key_column: Optional[str] = None
) -> UpdatePlan:
    """Compile a filtered read query to a single-statement UPDATE plan.

    ``key_column`` is the record identity (``jid`` for the FORM, ``id`` for
    the baseline ORM): when given, the write targets every row of every
    record with *any* matching row, via the key subselect; joins, ordering
    and LIMIT/OFFSET on ``query`` are honoured inside the subselect exactly
    as in :func:`plan_bounded`.

    >>> from repro.db.expr import eq
    >>> from repro.db.sqlgen import update_to_sql
    >>> plan = plan_update(
    ...     Query("Paper").filter(eq("accepted", True)), {"decided": True}, "jid")
    >>> statement, params = update_to_sql(plan)
    >>> print(statement)
    UPDATE "Paper" SET "decided" = ? WHERE jid IN (SELECT DISTINCT "jid" FROM "Paper" WHERE accepted = ?)
    >>> params
    [True, True]
    >>> plan_update(Query("Paper"), {})
    Traceback (most recent call last):
        ...
    ValueError: plan_update needs at least one column assignment
    """
    if not values:
        # An empty SET list is invalid SQL; reject it here so both backends
        # agree instead of SQLite raising where the memory engine "succeeds".
        raise ValueError("plan_update needs at least one column assignment")
    return UpdatePlan(query.table, dict(values), _plan_write_where(query, key_column))


def plan_delete(query: "Query", key_column: Optional[str] = None) -> DeletePlan:
    """Compile a filtered read query to a single-statement DELETE plan.

    Mirrors :func:`plan_update`: with a ``key_column`` the delete removes
    every row of every matching record in one statement -- the set-oriented
    replacement for the fetch-then-delete-per-record loop.

    >>> from repro.db.expr import eq
    >>> from repro.db.sqlgen import delete_to_sql
    >>> plan = plan_delete(Query("Paper").filter(eq("withdrawn", True)), "jid")
    >>> print(delete_to_sql(plan)[0])
    DELETE FROM "Paper" WHERE jid IN (SELECT DISTINCT "jid" FROM "Paper" WHERE withdrawn = ?)
    >>> plan_delete(Query("Paper")).where is None   # unfiltered: no subselect
    True
    """
    return DeletePlan(query.table, _plan_write_where(query, key_column))


def plan_aggregate(
    query: "Query",
    group_columns: Sequence[str],
    aggregates: Sequence[Aggregate],
) -> "Query":
    """Compile a filtered query to one aggregate-selection statement.

    Keeps the query's filters and joins, drops row shaping (projection,
    DISTINCT, ordering, LIMIT/OFFSET), and selects ``aggregates`` per
    group of ``group_columns`` -- the single statement behind the FORM's
    aggregates-under-facets: grouping by the ``jvars`` columns partitions
    matching rows by label assignment, and the per-partition aggregates
    merge into one faceted result (see ``repro.form.aggregates``).  With
    no group columns it is a scalar aggregate: one result row, whose one
    value :meth:`~repro.db.backend.Backend.aggregate` reads.

    Bare group and aggregate columns are qualified with the base table
    under joins (both joined tables may carry the column), like every
    other column resolution in this package.

    >>> from repro.db.sqlgen import query_to_sql
    >>> q = plan_aggregate(Query("Paper"), ["jvars"], [Aggregate("COUNT")])
    >>> query_to_sql(q)[0]
    'SELECT "jvars" AS "jvars", COUNT(*) AS "COUNT(*)" FROM "Paper" GROUP BY "jvars"'
    >>> q = plan_aggregate(Query("Paper").ordered_by("title").limited(3), (), [Aggregate("MAX", "score")])
    >>> query_to_sql(q)[0]
    'SELECT MAX("score") AS "MAX(score)" FROM "Paper"'
    """
    if query.is_join():
        def qualified(name: str) -> str:
            return name if name == "*" or "." in name else f"{query.table}.{name}"

        group_columns = [qualified(name) for name in group_columns]
        aggregates = [
            replace(aggregate, column=qualified(aggregate.column))
            for aggregate in aggregates
        ]
    return replace(
        query,
        columns=None,
        distinct=False,
        order_by=(),
        limit=None,
        offset=0,
        aggregates=tuple(aggregates),
        group_by=tuple(group_columns),
    )


def apply_order(rows: List[Dict[str, Any]], order_by: Sequence[Order]) -> List[Dict[str, Any]]:
    """Sort rows by a sequence of order terms (stable, None-safe)."""
    result = list(rows)
    for order in reversed(order_by):
        def key(row: Dict[str, Any], column: str = order.column) -> Tuple[int, Any]:
            value = column_value(row, column, None)
            return (value is None, value)

        result.sort(key=key, reverse=not order.ascending)
    return result


def apply_limit(
    rows: List[Dict[str, Any]], limit: Optional[int], offset: int
) -> List[Dict[str, Any]]:
    """Apply LIMIT/OFFSET to an ordered row list.

    >>> apply_limit([1, 2, 3, 4], 2, 1)
    [2, 3]
    """
    if offset:
        rows = rows[offset:]
    if limit is not None:
        rows = rows[:limit]
    return rows


def row_key(row: Dict[str, Any]) -> Any:
    """A hashable identity for one result row (used by SELECT DISTINCT)."""
    # Single-column rows are the hot shape (the record-key subselects of the
    # bounded and write pushdowns dedupe millions of {key: value} dicts);
    # sorting a one-item view is pure overhead.
    items = row.items()
    key = tuple(items) if len(row) < 2 else tuple(sorted(items, key=lambda item: item[0]))
    try:
        hash(key)
    except TypeError:  # unhashable values: fall back to their repr
        return repr(key)
    return key


def dedupe_rows(
    rows: Iterable[Dict[str, Any]], stop_after: Optional[int] = None
) -> List[Dict[str, Any]]:
    """Drop duplicate rows, keeping first appearance (SELECT DISTINCT).

    Runs after projection and ordering, so for a distinct-limited subquery
    the kept order matches SQL: dedupe first, then LIMIT/OFFSET.
    ``stop_after`` stops consuming ``rows`` once that many distinct rows are
    collected -- the early exit behind the bounded-query pushdown staying
    flat as tables grow on the in-memory backend.

    >>> dedupe_rows([{"jid": 1}, {"jid": 2}, {"jid": 1}])
    [{'jid': 1}, {'jid': 2}]
    >>> dedupe_rows([{"jid": 1}], stop_after=0)
    []
    """
    if stop_after is not None and stop_after <= 0:
        return []
    seen = set()
    unique: List[Dict[str, Any]] = []
    for row in rows:
        key = row_key(row)
        if key in seen:
            continue
        seen.add(key)
        unique.append(row)
        if stop_after is not None and len(unique) >= stop_after:
            break
    return unique


def dedupe_values(
    values: Iterable[Any], stop_after: Optional[int] = None
) -> List[Any]:
    """:func:`dedupe_rows` for the values of one column.

    Hashing the value itself keys exactly as ``row_key`` of a one-column
    row does (``1``, ``1.0`` and ``True`` are one value; ``None`` is one).

    >>> dedupe_values([2, None, 2.0, 1, None, True, 3])
    [2, None, 1, 3]
    >>> dedupe_values([2, None, 2, 1, 3], stop_after=2)
    [2, None]
    """
    if stop_after is None:
        return list(dict.fromkeys(values))
    if stop_after <= 0:
        return []
    seen: Dict[Any, None] = {}
    for value in values:
        if value not in seen:
            seen[value] = None
            if len(seen) >= stop_after:
                break
    return list(seen)


def limit_by_key(items: List[Any], key, limit: Optional[int]) -> List[Any]:
    """Keep every item of the first ``limit`` distinct keys, in order.

    The record-counting limit shared by both ORMs: the FORM limits facet
    rows per jid, the baseline limits joined rows per pk.  All items of a
    kept key are retained wherever they appear, so a limited result can
    never truncate one record to a subset of its rows.
    """
    if limit is None:
        return items
    kept: Dict[Any, None] = {}
    limited: List[Any] = []
    for item in items:
        item_key = key(item)
        if item_key not in kept:
            if len(kept) >= limit:
                continue
            kept[item_key] = None
        limited.append(item)
    return limited


def compute_aggregate(rows: List[Dict[str, Any]], aggregate: Aggregate) -> Any:
    """Evaluate an aggregate over already-filtered rows.

    Follows SQL's NULL rules exactly (the memory engine must agree with
    SQLite): NULL values are skipped, ``COUNT`` of none is 0, and SUM, AVG,
    MIN and MAX over an empty or all-NULL column are NULL (``None``).

    >>> compute_aggregate([{"v": None}, {"v": 2}], Aggregate("COUNT", "v"))
    1
    >>> compute_aggregate([{"v": None}], Aggregate("SUM", "v")) is None
    True
    >>> compute_aggregate([{"v": 2}, {"v": 2}], Aggregate("SUM", "v", distinct=True))
    2
    """
    function = aggregate.function.upper()
    if function == "COUNT" and aggregate.column == "*":
        return len(rows)
    values = [
        value
        for row in rows
        if (value := column_value(row, aggregate.column, None)) is not None
    ]
    if aggregate.distinct:
        try:
            values = list(dict.fromkeys(values))
        except TypeError:  # unhashable values: quadratic fallback
            values = [v for i, v in enumerate(values) if v not in values[:i]]
    if function == "COUNT":
        return len(values)
    if not values:
        return None
    if function == "SUM":
        return sum(values)
    if function == "AVG":
        return sum(values) / len(values)
    if function == "MIN":
        return min(values)
    if function == "MAX":
        return max(values)
    raise ValueError(f"unknown aggregate function {function!r}")  # pragma: no cover
