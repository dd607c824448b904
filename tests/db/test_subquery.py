"""The subquery/pushdown layer of ``repro.db``: rendering and evaluation.

Covers :class:`~repro.db.expr.InSubquery`, the ``distinct`` flag, the
``plan_bounded`` compiler and backend parity -- the memory engine must
return exactly what SQLite returns for every pushdown shape.
"""

import dataclasses

import pytest

from repro.db import Database, MemoryBackend, SqliteBackend
from repro.db.expr import InSubquery, col, eq, in_subquery, null_safe_eq
from repro.db.query import Aggregate, Query, _copy, plan_bounded
from repro.db.schema import ColumnType
from repro.db.sqlgen import query_to_sql


def _seed_people(database: Database) -> None:
    database.define_table("Person", name=ColumnType.TEXT, team=ColumnType.TEXT)
    rows = [
        {"name": "ada", "team": "red"},
        {"name": "bob", "team": "red"},
        {"name": "cyd", "team": "blue"},
        {"name": "dee", "team": "red"},
        {"name": "eli", "team": "blue"},
    ]
    database.insert_many("Person", rows)


# -- query copies -----------------------------------------------------------------------


def test_query_copies_equal_dataclasses_replace():
    base = (
        Query("Paper")
        .filter(eq("ok", True))
        .join("ConfUser", "author", "jid")
        .ordered_by("title")
    )
    changes = [
        {},
        {"limit": 3, "offset": 1},
        {"columns": ("jid",), "distinct": True},
        {"where": None, "order_by": ()},
        {"aggregates": (Aggregate("COUNT"),), "group_by": ("jvars",)},
    ]
    for change in changes:
        copy, expected = _copy(base, **change), dataclasses.replace(base, **change)
        assert copy == expected and hash(copy) == hash(expected)
        assert type(copy) is Query and vars(copy) == vars(expected)
    assert base.limited(3, 1) == dataclasses.replace(base, limit=3, offset=1)
    assert base == Query("Paper").filter(eq("ok", True)).join(
        "ConfUser", "author", "jid"
    ).ordered_by("title")
    aggregate = Aggregate("SUM", "score")
    copy = _copy(aggregate, column="Paper.score")
    expected = dataclasses.replace(aggregate, column="Paper.score")
    assert copy == expected and hash(copy) == hash(expected)


def test_query_copies_run_the_post_init_checks():
    with pytest.raises(ValueError, match="unknown aggregate function"):
        _copy(Aggregate("COUNT", "jid"), function="MEDIAN")
    assert _copy(Query("Paper"), limit=2).limit == 2  # a Query has no check


# -- SQL rendering ----------------------------------------------------------------------


def test_in_subquery_renders_nested_select_with_params():
    sub = (
        Query("Person")
        .filter(eq("team", "red"))
        .select("id")
        .distinct_rows()
        .ordered_by("name")
        .limited(2, offset=1)
    )
    outer = Query("Person").filter(eq("team", "red")).in_subquery("id", sub)
    statement, params = query_to_sql(outer)
    # Ordered bounded subqueries render in the deterministic grouped form
    # (DISTINCT + ORDER BY on a non-selected column would let SQLite pick
    # an arbitrary representative row per key).
    assert statement == (
        'SELECT * FROM "Person" WHERE (team = ? AND id IN '
        '(SELECT "id" FROM "Person" WHERE team = ? GROUP BY "id" '
        'ORDER BY (MIN("name") IS NULL) ASC, MIN("name") ASC, "id" ASC '
        'LIMIT 2 OFFSET 1))'
    )
    # Outer where params come first, then the subquery's, in clause order.
    assert params == ["red", "red"]


def test_unordered_bounded_subquery_renders_distinct():
    sub = Query("Person").select("id").distinct_rows().limited(3)
    statement, _params = query_to_sql(Query("Person").in_subquery("id", sub))
    assert 'id IN (SELECT DISTINCT "id" FROM "Person" LIMIT 3)' in statement


def test_offset_without_limit_renders_unbounded_limit():
    statement, _params = query_to_sql(Query("Person").limited(None, offset=3))
    assert statement.endswith("LIMIT -1 OFFSET 3")


def test_plan_bounded_qualifies_key_under_joins():
    query = Query("Book").join("Author", "author_id", "id")
    bounded = plan_bounded(query, "id", 5)
    statement, _params = query_to_sql(bounded, qualify=True)
    assert 'Book.id IN (SELECT DISTINCT "Book"."id" FROM "Book" JOIN "Author"' in statement
    assert statement.count("JOIN") == 2  # join present in outer and subquery


def test_plan_bounded_strips_stale_outer_row_limit():
    # A leftover row-level LIMIT on the outer query would truncate facet/
    # join rows of the selected records; the planner moves the bound fully
    # into the subquery.
    bounded = plan_bounded(Query("T").limited(2), "jid", 5)
    assert bounded.limit is None and bounded.offset == 0
    statement, _ = query_to_sql(bounded)
    assert statement.endswith('(SELECT DISTINCT "jid" FROM "T" LIMIT 5)')


def test_tables_read_includes_subquery_tables():
    sub = Query("Person").join("Team", "team", "id").select("id")
    outer = Query("Audit").in_subquery("person", sub)
    assert outer.tables_read() == ("Audit", "Person", "Team")


def test_order_by_same_bare_name_on_other_table_uses_grouped_form():
    # Regression: ordering the subquery by another table's identically
    # named column must NOT be mistaken for the selected key -- the plain
    # DISTINCT rendering would let SQLite pick arbitrary representative
    # rows per key under a LIMIT.
    sub = (
        Query("Paper")
        .join("ConfUser", "author", "jid")
        .select("Paper.jid")
        .distinct_rows()
        .ordered_by("ConfUser.jid")
        .limited(2)
    )
    statement, _params = query_to_sql(sub, qualify=True)
    assert 'GROUP BY "Paper"."jid"' in statement
    assert 'MIN("ConfUser"."jid") ASC' in statement


def test_unresolved_in_subquery_cannot_evaluate():
    expression = in_subquery("id", Query("Person").select("id"))
    with pytest.raises(TypeError, match="resolve_subqueries"):
        expression.evaluate({"id": 1})


# -- evaluation on both backends ---------------------------------------------------------


def test_distinct_deduplicates_rows(database):
    _seed_people(database)
    rows = database.execute(Query("Person").select("team").distinct_rows().ordered_by("team"))
    assert rows == [{"team": "blue"}, {"team": "red"}]


def test_distinct_applies_before_limit(database):
    _seed_people(database)
    rows = database.execute(
        Query("Person").select("team").distinct_rows().ordered_by("team").limited(1, offset=1)
    )
    assert rows == [{"team": "red"}]


def test_in_subquery_filters_rows(database):
    _seed_people(database)
    sub = (
        Query("Person")
        .filter(eq("team", "red"))
        .select("id")
        .distinct_rows()
        .ordered_by("name")
        .limited(2)
    )
    rows = database.execute(Query("Person").in_subquery("id", sub).ordered_by("name"))
    assert [row["name"] for row in rows] == ["ada", "bob"]


def test_in_subquery_with_offset(database):
    _seed_people(database)
    sub = (
        Query("Person")
        .filter(eq("team", "red"))
        .select("id")
        .distinct_rows()
        .ordered_by("name")
        .limited(2, offset=1)
    )
    rows = database.execute(Query("Person").in_subquery("id", sub).ordered_by("name"))
    assert [row["name"] for row in rows] == ["bob", "dee"]


def test_distinct_limit_zero_is_empty(database):
    # The memory engine's streaming distinct path must agree with SQLite:
    # LIMIT 0 returns nothing (regression: stop_after=0 once kept one row).
    _seed_people(database)
    assert database.execute(Query("Person").select("id").distinct_rows().limited(0)) == []
    bounded = plan_bounded(Query("Person"), "id", 0)
    assert database.execute(bounded) == []


#: One column with duplicates and NULLs, in insertion (first-appearance) order.
_KEYS = [3, None, 3, 1, None, 2, 1]


def _key_table(database: Database) -> Query:
    database.define_table("Key", key=ColumnType.INTEGER)
    database.insert_many("Key", [{"key": key} for key in _KEYS])
    return Query("Key").select("key").distinct_rows()


def test_unordered_one_column_distinct_keeps_each_value_once(database):
    rows = database.execute(_key_table(database))
    keys = [row["key"] for row in rows]
    assert len(keys) == len(set(keys))
    assert set(keys) == {1, 2, 3, None}


def test_unordered_one_column_distinct_keeps_first_appearance_order():
    database = Database(MemoryBackend())
    query = _key_table(database)
    assert database.execute(query) == [
        {"key": 3}, {"key": None}, {"key": 1}, {"key": 2}
    ]
    assert database.execute(query.limited(2, offset=1)) == [{"key": None}, {"key": 1}]


def test_count_with_subquery_where(database):
    _seed_people(database)
    sub = Query("Person").filter(eq("team", "blue")).select("id").distinct_rows()
    where = InSubquery(col("id"), sub)
    assert database.count("Person", where) == 2


def test_bounded_order_by_key_varying_column_is_backend_identical():
    """Regression: ``DISTINCT jid ORDER BY title`` let SQLite sort each jid
    by an arbitrary row, keeping different records than the memory engine
    when the order column varies within a key (faceted columns, joined
    columns).  The grouped MIN/MAX form pins the choice down."""
    results = {}
    for name, database in (
        ("memory", Database(MemoryBackend())),
        ("sqlite", Database(SqliteBackend())),
    ):
        database.define_table("T", jid=ColumnType.INTEGER, title=ColumnType.TEXT)
        database.insert_many(
            "T",
            [
                {"jid": 1, "title": "z"},
                {"jid": 1, "title": "a"},
                {"jid": 2, "title": "b"},
                {"jid": 3, "title": "c"},
            ],
        )
        bounded = plan_bounded(Query("T").ordered_by("title"), "jid", 2)
        results[name] = sorted({row["jid"] for row in database.execute(bounded)})
        database.close()
    # MIN(title) per jid: 1->'a', 2->'b', 3->'c'; the bound keeps {1, 2}.
    assert results["memory"] == results["sqlite"] == [1, 2]


def test_bounded_order_with_null_values_is_backend_identical():
    """Regression: a record whose order column is all-NULL sorted first on
    SQLite (bare MIN aggregate) but last on the memory engine, so a bound
    kept different records; the ``(MIN(col) IS NULL)`` sort flag pins NULL
    groups to the memory convention (last ascending) on both backends."""
    results = {}
    for name, database in (
        ("memory", Database(MemoryBackend())),
        ("sqlite", Database(SqliteBackend())),
    ):
        database.define_table("T", jid=ColumnType.INTEGER, title=ColumnType.TEXT)
        database.insert_many(
            "T",
            [
                {"jid": 1, "title": None},
                {"jid": 2, "title": "a"},
                {"jid": 3, "title": "b"},
            ],
        )
        bounded = plan_bounded(Query("T").ordered_by("title"), "jid", 2)
        results[name] = sorted({row["jid"] for row in database.execute(bounded)})
        database.close()
    assert results["memory"] == results["sqlite"] == [2, 3]


def test_negated_in_subquery_follows_sql_null_semantics(database):
    # NULL NOT IN (...) is UNKNOWN in SQL: the NULL row matches neither the
    # IN filter nor its negation, on both backends.
    database.define_table("N", value=ColumnType.TEXT)
    database.insert_many("N", [{"value": "a"}, {"value": None}, {"value": "b"}])
    sub = Query("N").filter(eq("value", "a")).select("value").distinct_rows()
    negated = Query("N").filter(~in_subquery("value", sub))
    assert [row["value"] for row in database.execute(negated)] == ["b"]


def test_not_in_duplicate_valued_subquery(database):
    # Regression: a non-distinct subquery resolving to duplicate values
    # (e.g. one jid per facet row) must not be mistaken for NULL presence --
    # NOT IN over it still matches the true misses, on both backends.
    database.define_table("D", jid=ColumnType.INTEGER)
    database.insert_many("D", [{"jid": 1}, {"jid": 1}, {"jid": 3}])
    sub = Query("D").filter(eq("jid", 1)).select("jid")  # yields (1, 1)
    negated = Query("D").filter(~in_subquery("jid", sub))
    assert [row["jid"] for row in database.execute(negated)] == [3]


def test_not_in_empty_subquery_keeps_null_rows(database):
    # x IN (empty) is FALSE for every x, NULL included, so its negation
    # keeps every row -- the NULL row too -- on reads and writes alike.
    database.define_table("T", x=ColumnType.INTEGER)
    database.define_table("U", y=ColumnType.INTEGER)
    database.insert_many("T", [{"x": None}, {"x": 1}])
    empty = Query("U").select("y")
    assert database.execute(Query("T").filter(in_subquery("x", empty))) == []
    negated = Query("T").filter(~in_subquery("x", empty))
    assert [row["x"] for row in database.execute(negated)] == [None, 1]
    assert database.count("T", ~in_subquery("x", empty)) == 2
    assert database.delete("T", ~in_subquery("x", empty)) == 2


# -- lazy subqueries on the memory engine ----------------------------------------------


def _counted_subqueries(monkeypatch, backend):
    """The tables of the statements ``backend`` runs inside another one."""
    ran = []
    execute = backend._execute_query

    def counting(query, *args):
        ran.append(query.table)
        return execute(query, *args)

    monkeypatch.setattr(backend, "_execute_query", counting)
    return ran


def test_resolution_is_lazy_under_or_and_not_only():
    from repro.db.expr import InList, resolve_subqueries

    sub = Query("U").select("y")
    top, nested = in_subquery("x", sub), ~in_subquery("x", sub) | eq("x", 1)
    runs = []

    def run(query):
        runs.append(query.table)
        return [1, 2]

    eager = resolve_subqueries(top & nested, run)
    assert isinstance(eager.left, InList) and runs == ["U", "U"]
    runs.clear()
    lazy = resolve_subqueries(top & nested, run, lazy=True)
    # The top-level conjunct is the index planner's probe: it runs now.
    assert isinstance(lazy.left, InList) and runs == ["U"]
    member = lazy.right.left.operand
    assert isinstance(member, InSubquery) and member.members is not None
    predicate = lazy.compile()
    assert [predicate({"x": x}) for x in (1, 2, 3)] == [True, False, False]
    assert runs == ["U", "U"]  # the nested one ran once, for three rows
    # One subquery object on both sides of an OR runs once.
    runs.clear()
    shared = in_subquery("x", sub)
    both = resolve_subqueries((eq("x", 9) & shared) | ~shared, run, lazy=True)
    predicate = both.compile()
    assert [predicate({"x": x}) for x in (1, 3)] == [False, True]
    assert runs == ["U"]


def test_a_nested_subquery_runs_once_when_a_row_reaches_it(monkeypatch):
    database = Database(MemoryBackend())
    database.define_table("T", x=ColumnType.INTEGER)
    database.define_table("U", y=ColumnType.INTEGER)
    database.insert_many("T", [{"x": x} for x in (1, 2, 3, None)])
    database.insert_many("U", [{"y": 2}, {"y": 3}])
    ran = _counted_subqueries(monkeypatch, database.backend)
    where = eq("x", 1) | in_subquery("x", Query("U").select("y"))
    with database.observe_statements() as log:
        rows = database.execute(Query("T").filter(where))
    assert [row["x"] for row in rows] == [1, 2, 3]
    assert ran == ["T", "U"] and len(log.statements) == 1
    # No row reaches the subquery (``x IS 7`` is FALSE, never UNKNOWN,
    # so AND stops there): it never runs.
    ran.clear()
    narrowed = Query("T").filter(null_safe_eq("x", 7)).filter(where)
    assert database.execute(narrowed) == [] and ran == ["T"]


@pytest.mark.parametrize("members", [(), (None,), (2, None), (2, 3)])
def test_a_lazy_subquery_keeps_the_in_lists_three_valued_result(members):
    results = {}
    for kind in ("memory", "sqlite"):
        database = Database(MemoryBackend() if kind == "memory" else SqliteBackend())
        database.define_table("T", x=ColumnType.INTEGER)
        database.define_table("U", y=ColumnType.INTEGER)
        database.insert_many("T", [{"x": x} for x in (1, 2, None)])
        database.insert_many("U", [{"y": y} for y in members])
        sub = Query("U").select("y")
        shapes = [
            eq("x", 99) | in_subquery("x", sub),
            eq("x", 99) | ~in_subquery("x", sub),
        ]
        results[kind] = [
            sorted((row["x"] is None, row["x"] or 0) for row in database.execute(
                Query("T").filter(shape)
            ))
            for shape in shapes
        ]
        database.close()
    assert results["memory"] == results["sqlite"]


def test_update_and_delete_with_subquery_where(database):
    # Writes accept subquery filters like reads do (SQLite renders the
    # subselect inline; the memory engine materialises it first).
    _seed_people(database)
    sub = Query("Person").filter(eq("team", "red")).select("id").distinct_rows()
    updated = database.update("Person", InSubquery(col("id"), sub), team="crimson")
    assert updated == 3
    crimson = Query("Person").filter(eq("team", "crimson")).select("id").distinct_rows()
    deleted = database.delete("Person", InSubquery(col("id"), crimson))
    assert deleted == 3
    assert database.count("Person") == 2


def test_keyword_filter_on_none_means_is_null(database):
    # Django semantics for field=None: IS NULL, on both backends (a plain
    # `= NULL` comparison is UNKNOWN and would match nothing anywhere).
    database.define_table("K", value=ColumnType.TEXT)
    database.insert_many("K", [{"value": None}, {"value": "y"}])
    assert [row["id"] for row in database.find("K", value=None)] == [1]


def test_null_comparison_is_unknown(database):
    # Comparisons against NULL are UNKNOWN on both backends: neither
    # `= 'x'` nor `!= 'x'` matches a NULL column; IS NULL does.
    from repro.db.expr import IsNull, ne

    database.define_table("C", value=ColumnType.TEXT)
    database.insert_many("C", [{"value": None}, {"value": "y"}])
    assert [r["value"] for r in database.execute(Query("C").filter(ne("value", "x")))] == ["y"]
    assert database.count("C", IsNull(col("value"))) == 1


def test_not_in_list_with_null_matches_nothing(database):
    # x NOT IN ('a', NULL) is never TRUE in SQL (the NULL comparison makes
    # the IN UNKNOWN); memory must agree instead of returning the misses.
    database.define_table("M", value=ColumnType.TEXT)
    database.insert_many("M", [{"value": "a"}, {"value": "b"}])
    from repro.db.expr import InList, NotExpr

    query = Query("M").filter(NotExpr(InList(col("value"), ("a", None))))
    assert database.execute(query) == []


def test_backend_parity_on_bounded_joined_query():
    """Memory and SQLite return identical id sets for every pushdown shape."""

    def build(database: Database):
        database.define_table("Author", name=ColumnType.TEXT)
        database.define_table(
            "Book", title=ColumnType.TEXT, author_id=ColumnType.INTEGER
        )
        for author in ("ada", "bob"):
            database.insert("Author", name=author)
        for index in range(6):
            database.insert(
                "Book", title=f"book{index}", author_id=1 if index < 4 else 2
            )

    results = {}
    for name, database in (
        ("memory", Database(MemoryBackend())),
        ("sqlite", Database(SqliteBackend())),
    ):
        build(database)
        query = (
            Query("Book")
            .join("Author", "author_id", "id")
            .filter(eq("Author.name", "ada"))
            .ordered_by("Book.title", ascending=False)
        )
        bounded = plan_bounded(query, "id", 2, offset=1)
        rows = database.execute(bounded)
        results[name] = [row["Book.id"] for row in rows]
        database.close()
    assert results["memory"] == results["sqlite"] == [3, 2]
