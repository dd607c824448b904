"""SQL text generation.

Renders schemas and :class:`~repro.db.query.Query` objects to SQL.  Also
provides :func:`django_style_sql` and :func:`jacqueline_style_sql`, which
reproduce the Table 2 comparison from the paper: the Jacqueline translation
of an ORM query selects the ``jid``/``jvars`` meta-data columns of every
joined table and joins foreign keys on ``jid`` instead of the primary key.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from repro.db.query import (
    Aggregate,
    DeletePlan,
    Query,
    UpdatePlan,
    order_outside_selection,
)
from repro.db.schema import TableSchema


def schema_to_sql(schema: TableSchema) -> str:
    """CREATE TABLE statement for a schema."""
    parts = []
    for column in schema.columns:
        fragment = f'"{column.name}" {column.type.sql_type()}'
        if column.primary_key:
            fragment += " PRIMARY KEY AUTOINCREMENT"
        elif not column.nullable:
            fragment += " NOT NULL"
        parts.append(fragment)
    body = ", ".join(parts)
    return f'CREATE TABLE IF NOT EXISTS "{schema.name}" ({body})'


def query_to_sql(query: Query, qualify: bool = False) -> Tuple[str, List[Any]]:
    """Render a query to a SELECT statement and its bound parameters.

    The bounded-query pushdown renders as a jid subselect -- the LIMIT sits
    inside, so the database prunes to *n* records before the outer query
    fetches their facet rows:

    >>> from repro.db.expr import eq
    >>> sub = (Query("Paper").filter(eq("accepted", True))
    ...        .select("jid").distinct_rows().limited(5))
    >>> outer = Query("Paper").filter(eq("accepted", True)).in_subquery("jid", sub)
    >>> statement, params = query_to_sql(outer)
    >>> print(statement)
    SELECT * FROM "Paper" WHERE (accepted = ? AND jid IN (SELECT DISTINCT "jid" FROM "Paper" WHERE accepted = ? LIMIT 5))
    >>> params
    [True, True]

    An *ordered* bounded subquery renders in the grouped form instead --
    SQLite's ``DISTINCT ... ORDER BY non-selected-column`` sorts each key
    by an arbitrary row, so the order column is aggregated per key (MIN
    ascending / MAX descending, key tie-break) to make the kept record set
    deterministic and backend-independent:

    >>> sub = Query("Paper").select("jid").distinct_rows().ordered_by("title").limited(5)
    >>> print(query_to_sql(sub)[0])
    SELECT "jid" FROM "Paper" GROUP BY "jid" ORDER BY (MIN("title") IS NULL) ASC, MIN("title") ASC, "jid" ASC LIMIT 5

    Aggregate selections render the same way on both backends, each
    aggregate aliased with its ``result_key`` so result rows are keyed
    identically everywhere, grouped or scalar:

    >>> grouped = (Query("Paper").select_aggregates(Aggregate("SUM", "score"))
    ...            .grouped_by("jvars"))
    >>> print(query_to_sql(grouped)[0])
    SELECT "jvars" AS "jvars", SUM("score") AS "SUM(score)" FROM "Paper" GROUP BY "jvars"
    >>> print(query_to_sql(Query("Paper").select_aggregates(Aggregate("COUNT", "jid")))[0])
    SELECT COUNT("jid") AS "COUNT(jid)" FROM "Paper"
    """
    params: List[Any] = []

    # A distinct query ordered by non-selected columns evaluates in grouped
    # form (see order_outside_selection): DISTINCT becomes GROUP BY over
    # the selected columns and every order term becomes MIN/MAX per group.
    grouped_order = order_outside_selection(query)
    names: Optional[Sequence[str]] = None

    if query.aggregates:
        parts = [f'{_quote_name(name)} AS "{name}"' for name in query.group_by]
        parts.extend(
            f'{_render_aggregate(aggregate)} AS "{aggregate.result_key()}"'
            for aggregate in query.aggregates
        )
        select_clause = ", ".join(parts)
    elif query.columns:
        names = query.qualified_columns() if qualify else query.columns
        select_clause = ", ".join(_quote_name(name) for name in names)
    elif qualify:
        select_clause = ", ".join(
            f'"{table}".*' for table in [query.table] + [join.table for join in query.joins]
        )
    else:
        select_clause = "*"

    if query.distinct and not grouped_order:
        select_clause = f"DISTINCT {select_clause}"

    statement = f'SELECT {select_clause} FROM "{query.table}"'

    for join in query.joins:
        left = _quote_name(
            join.left_column if "." in join.left_column else f"{query.table}.{join.left_column}"
        )
        right = _quote_name(
            join.right_column if "." in join.right_column else f"{join.table}.{join.right_column}"
        )
        statement += f' JOIN "{join.table}" ON {left} = {right}'

    if query.where is not None:
        where_sql, where_params = query.where.to_sql()
        statement += f" WHERE {where_sql}"
        params.extend(where_params)

    if query.group_by:
        statement += " GROUP BY " + ", ".join(_quote_name(c) for c in query.group_by)
    elif grouped_order:
        statement += " GROUP BY " + ", ".join(_quote_name(name) for name in names)

    if query.order_by:
        terms = []
        for order in query.order_by:
            direction = "ASC" if order.ascending else "DESC"
            if grouped_order:
                # Aggregate per group, with an explicit IS-NULL sort flag:
                # the memory engine sorts None last ascending (first
                # descending), while bare SQL puts NULL first ascending --
                # the flag pins both backends to the same record set.
                function = "MIN" if order.ascending else "MAX"
                target = f"{function}({_quote_name(order.column)})"
                terms.append(f"({target} IS NULL) {direction}")
                terms.append(f"{target} {direction}")
            else:
                # Plain ORDER BY gets the same IS-NULL sort flag: SQLite
                # sorts NULL first ascending while the memory engine sorts
                # None last, so without the flag the two backends disagree
                # on row order whenever the order column is nullable.
                terms.append(f"({_quote_name(order.column)} IS NULL) {direction}")
                terms.append(f"{_quote_name(order.column)} {direction}")
        if grouped_order:
            # Deterministic tie-break so equal aggregate keys cannot make
            # the two backends keep different records under a LIMIT.
            terms.extend(f"{_quote_name(name)} ASC" for name in names)
        statement += " ORDER BY " + ", ".join(terms)

    if query.limit is not None:
        statement += f" LIMIT {int(query.limit)}"
        if query.offset:
            statement += f" OFFSET {int(query.offset)}"
    elif query.offset:
        # SQLite requires a LIMIT clause before OFFSET; -1 means unbounded.
        statement += f" LIMIT -1 OFFSET {int(query.offset)}"

    return statement, params


def update_to_sql(plan: UpdatePlan) -> Tuple[str, List[Any]]:
    """Render an :class:`~repro.db.query.UpdatePlan` to one UPDATE statement.

    The WHERE clause may nest a record-key subselect (see
    :func:`~repro.db.query.plan_update`), rendered inline exactly like a
    read query's pushdown -- the whole write stays one statement:

    >>> from repro.db.expr import eq
    >>> from repro.db.query import Query, plan_update
    >>> plan = plan_update(
    ...     Query("Paper").filter(eq("accepted", True)).limited(3),
    ...     {"decided": True}, "jid")
    >>> print(update_to_sql(plan)[0])
    UPDATE "Paper" SET "decided" = ? WHERE jid IN (SELECT DISTINCT "jid" FROM "Paper" WHERE accepted = ? LIMIT 3)
    """
    assignments = ", ".join(f'"{name}" = ?' for name in plan.values)
    params: List[Any] = list(plan.values.values())
    statement = f'UPDATE "{plan.table}" SET {assignments}'
    if plan.where is not None:
        where_sql, where_params = plan.where.to_sql()
        statement += f" WHERE {where_sql}"
        params.extend(where_params)
    return statement, params


def delete_to_sql(plan: DeletePlan) -> Tuple[str, List[Any]]:
    """Render a :class:`~repro.db.query.DeletePlan` to one DELETE statement.

    >>> from repro.db.expr import eq
    >>> from repro.db.query import DeletePlan
    >>> delete_to_sql(DeletePlan("Paper", eq("withdrawn", True)))
    ('DELETE FROM "Paper" WHERE withdrawn = ?', [True])
    >>> delete_to_sql(DeletePlan("Paper"))
    ('DELETE FROM "Paper"', [])
    """
    statement = f'DELETE FROM "{plan.table}"'
    params: List[Any] = []
    if plan.where is not None:
        where_sql, where_params = plan.where.to_sql()
        statement += f" WHERE {where_sql}"
        params.extend(where_params)
    return statement, params


def _render_aggregate(aggregate: Aggregate) -> str:
    """``COUNT(*)`` / ``SUM("score")``."""
    column = aggregate.column
    target = column if column == "*" else _quote_name(column)
    return f"{aggregate.function.upper()}({target})"


def _quote_name(name: str) -> str:
    if "." in name:
        table, column = name.rsplit(".", 1)
        return f'"{table}"."{column}"'
    return f'"{name}"'


# -- Table 2: Django vs. Jacqueline translations ----------------------------------------


def django_style_sql(
    base_table: str,
    columns: Sequence[str],
    join_table: str,
    fk_column: str,
    where_column: str,
    where_value: str,
) -> str:
    """The SQL Django would issue for ``filter(rel__field=value)`` (Table 2, left)."""
    select = ", ".join(f"{base_table}.{name}" for name in columns)
    return (
        f"SELECT {select} "
        f"FROM {base_table} "
        f"JOIN {join_table} ON {base_table}.{fk_column} = {join_table}.id "
        f"WHERE {join_table}.{where_column} = '{where_value}';"
    )


def jacqueline_style_sql(
    base_table: str,
    columns: Sequence[str],
    join_table: str,
    fk_column: str,
    where_column: str,
    where_value: str,
) -> str:
    """The SQL the FORM issues for the same query (Table 2, right).

    Differences from the Django translation, exactly as in the paper:

    * the base table's ``jid`` and ``jvars`` columns and the joined table's
      ``jvars`` column are added to the SELECT list;
    * the foreign key joins on the referenced table's ``jid`` rather than its
      primary key ``id``.
    """
    select_columns = [f"{base_table}.{name}" for name in columns]
    select_columns += [f"{base_table}.jid", f"{base_table}.jvars", f"{join_table}.jvars"]
    select = ", ".join(select_columns)
    return (
        f"SELECT {select} "
        f"FROM {base_table} "
        f"JOIN {join_table} ON {base_table}.{fk_column} = {join_table}.jid "
        f"WHERE {join_table}.{where_column} = '{where_value}';"
    )
