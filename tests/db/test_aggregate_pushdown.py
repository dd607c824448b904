"""The aggregate-pushdown layer of ``repro.db``: rendering and evaluation.

Covers :class:`~repro.db.query.Aggregate` selections (scalar and grouped
multi-aggregates), the ``plan_aggregate`` compiler, SQL NULL semantics,
the memory backend's index-narrowed scans, and backend parity -- the
memory engine must return exactly what SQLite returns for every aggregate
shape.
"""

import datetime

import pytest

from repro.db import (
    Aggregate,
    Database,
    MemoryBackend,
    SqliteBackend,
)
from repro.db.expr import InList, col, eq
from repro.db.query import Query, plan_aggregate
from repro.db.schema import ColumnType
from repro.db.sqlgen import query_to_sql
from repro.db.table import Table


def _seed_scores(database: Database) -> None:
    database.define_table(
        "Score", jid=ColumnType.INTEGER, jvars=ColumnType.TEXT, points=ColumnType.INTEGER
    )
    database.insert_many(
        "Score",
        [
            {"jid": 1, "jvars": "k=True", "points": 10},
            {"jid": 1, "jvars": "k=False", "points": None},
            {"jid": 2, "jvars": "", "points": 7},
            {"jid": 3, "jvars": "", "points": None},
        ],
    )


# -- validation ---------------------------------------------------------------------------


def test_aggregate_validation():
    with pytest.raises(ValueError, match="unknown aggregate"):
        Aggregate("MEDIAN", "points")
    with pytest.raises(ValueError, match="unknown aggregate"):
        Aggregate("EXISTS")


# -- SQL rendering ------------------------------------------------------------------------


def test_plan_scalar_aggregate_strips_row_shaping():
    query = (
        Query("Score")
        .select("jid")
        .distinct_rows()
        .ordered_by("points")
        .limited(3, offset=1)
    )
    planned = plan_aggregate(query, (), [Aggregate("MAX", "points")])
    statement, _params = query_to_sql(planned)
    assert statement == 'SELECT MAX("points") AS "MAX(points)" FROM "Score"'


def test_plan_scalar_aggregate_qualifies_column_under_joins():
    query = Query("Book").join("Author", "author_id", "id")
    planned = plan_aggregate(query, (), [Aggregate("SUM", "pages")])
    assert planned.aggregates[0].column == "Book.pages"


def test_grouped_aggregates_render_aliases():
    query = plan_aggregate(
        Query("Score"), ["jvars"], [Aggregate("COUNT"), Aggregate("SUM", "points")]
    )
    statement, _params = query_to_sql(query)
    assert statement == (
        'SELECT "jvars" AS "jvars", COUNT(*) AS "COUNT(*)", '
        'SUM("points") AS "SUM(points)" FROM "Score" GROUP BY "jvars"'
    )


def test_plan_aggregate_qualifies_group_columns_under_joins():
    query = Query("Paper").join("ConfUser", "author", "jid")
    planned = plan_aggregate(query, ["jvars", "ConfUser.jvars"], [Aggregate("COUNT")])
    assert planned.group_by == ("Paper.jvars", "ConfUser.jvars")


# -- evaluation on both backends ----------------------------------------------------------


def _scalar(database, query, function, column="*"):
    """The value of ``function(column)`` over ``query``'s rows."""
    return database.aggregate(query.select_aggregates(Aggregate(function, column)))


def test_scalar_aggregates_follow_sql_null_rules(database):
    _seed_scores(database)
    q = Query("Score")
    assert _scalar(database, q, "COUNT") == 4
    assert _scalar(database, q, "COUNT", "points") == 2
    assert _scalar(database, q, "SUM", "points") == 17
    assert _scalar(database, q, "AVG", "points") == 8.5
    assert _scalar(database, q, "MIN", "points") == 7
    assert _scalar(database, q, "MAX", "points") == 10
    all_null = Query("Score").filter(eq("jid", 3))
    assert _scalar(database, all_null, "SUM", "points") is None
    assert _scalar(database, all_null, "AVG", "points") is None
    assert _scalar(database, all_null, "MIN", "points") is None
    assert _scalar(database, all_null, "COUNT", "points") == 0


def test_aggregates_on_empty_table(database):
    database.define_table("Empty", value=ColumnType.INTEGER)
    q = Query("Empty")
    assert _scalar(database, q, "COUNT") == 0
    assert _scalar(database, q, "SUM", "value") is None
    assert _scalar(database, q, "MIN", "value") is None
    # Grouped selections over an empty table produce no groups (SQL).
    grouped = plan_aggregate(q, ["value"], [Aggregate("COUNT")])
    assert database.execute(grouped) == []
    # ...but an ungrouped aggregate selection still yields one row.
    ungrouped = q.select_aggregates(Aggregate("COUNT"), Aggregate("SUM", "value"))
    assert database.execute(ungrouped) == [{"COUNT(*)": 0, "SUM(value)": None}]


def test_grouped_aggregate_rows_are_backend_identical():
    results = {}
    for name, database in (
        ("memory", Database(MemoryBackend())),
        ("sqlite", Database(SqliteBackend())),
    ):
        _seed_scores(database)
        query = plan_aggregate(
            Query("Score"),
            ["jvars"],
            [
                Aggregate("COUNT"),
                Aggregate("COUNT", "points"),
                Aggregate("SUM", "points"),
                Aggregate("MIN", "points"),
                Aggregate("MAX", "points"),
            ],
        )
        rows = database.execute(query)
        results[name] = sorted(rows, key=lambda row: row["jvars"])
        database.close()
    assert results["memory"] == results["sqlite"]
    by_jvars = {row["jvars"]: row for row in results["memory"]}
    assert by_jvars[""]["COUNT(*)"] == 2
    assert by_jvars[""]["SUM(points)"] == 7
    assert by_jvars["k=False"]["SUM(points)"] is None
    assert by_jvars["k=False"]["COUNT(points)"] == 0
    assert by_jvars["k=True"]["MIN(points)"] == 10


def test_grouped_aggregates_under_joins(database):
    database.define_table("Author", name=ColumnType.TEXT)
    database.define_table("Book", author_id=ColumnType.INTEGER, pages=ColumnType.INTEGER)
    database.insert_many("Author", [{"name": "ada"}, {"name": "bob"}])
    database.insert_many(
        "Book",
        [
            {"author_id": 1, "pages": 100},
            {"author_id": 1, "pages": 300},
            {"author_id": 2, "pages": 50},
        ],
    )
    query = plan_aggregate(
        Query("Book").join("Author", "author_id", "id"),
        ["Author.name"],
        [Aggregate("SUM", "Book.pages"), Aggregate("COUNT")],
    )
    rows = sorted(database.execute(query), key=lambda row: row["Author.name"])
    assert rows == [
        {"Author.name": "ada", "SUM(Book.pages)": 400, "COUNT(*)": 2},
        {"Author.name": "bob", "SUM(Book.pages)": 50, "COUNT(*)": 1},
    ]


def test_memory_joined_bounded_distinct_stops_at_its_first_match(monkeypatch):
    """The memory engine streams a join's base rows, so a joined
    ``SELECT DISTINCT ... LIMIT`` joins no more base rows than it scans up
    to its last kept match, while a joined COUNT still joins every one."""
    database = Database(MemoryBackend())
    database.define_table("Author", name=ColumnType.TEXT)
    database.define_table("Book", author_id=ColumnType.INTEGER)
    database.insert_many("Author", [{"name": f"a{i}"} for i in range(10)])
    database.insert_many("Book", [{"author_id": 1 + i % 10} for i in range(1000)])
    joined_tables = []
    qualify = MemoryBackend._qualify

    def counting_qualify(table, row):
        joined_tables.append(table)
        return qualify(table, row)

    monkeypatch.setattr(MemoryBackend, "_qualify", staticmethod(counting_qualify))
    query = Query("Book").join("Author", "author_id", "id")
    first = query.filter(eq("Author.name", "a2")).select("Book.id").distinct_rows()
    assert database.execute(first.limited(1)) == [{"Book.id": 3}]
    assert joined_tables.count("Book") == 3  # books 1 and 2 join a0 and a1
    assert joined_tables.count("Author") == 10
    joined_tables.clear()
    assert database.execute(first.limited(1, offset=1)) == [{"Book.id": 13}]
    assert joined_tables.count("Book") == 13
    joined_tables.clear()
    none = query.filter(eq("Author.name", "zz")).select("Book.id").distinct_rows()
    assert database.execute(none.limited(1)) == []
    assert joined_tables.count("Book") == 1000
    joined_tables.clear()
    count = _scalar(database, query.filter(eq("Author.name", "a2")), "COUNT")
    assert count == 100 and joined_tables.count("Book") == 1000


def test_min_max_decode_datetime_and_boolean():
    """MIN/MAX return stored values, so SQLite must decode them through the
    column type exactly like a row read (the memory engine holds live
    Python objects already)."""
    early = datetime.datetime(2020, 1, 1, 9, 0)
    late = datetime.datetime(2024, 6, 1, 9, 0)
    results = {}
    for name, database in (
        ("memory", Database(MemoryBackend())),
        ("sqlite", Database(SqliteBackend())),
    ):
        database.define_table(
            "Event", when=ColumnType.DATETIME, flag=ColumnType.BOOLEAN
        )
        database.insert_many(
            "Event",
            [{"when": early, "flag": True}, {"when": late, "flag": False}],
        )
        results[name] = (
            _scalar(database, Query("Event"), "MIN", "when"),
            _scalar(database, Query("Event"), "MAX", "when"),
            _scalar(database, Query("Event"), "MIN", "flag"),
        )
        database.close()
    assert results["memory"] == results["sqlite"] == (early, late, False)


def test_grouped_dict_aggregate_still_works(database):
    """A grouped count is a grouped selection read with ``execute()``, one
    row per group; ``aggregate()`` reads only ungrouped selections."""
    _seed_scores(database)
    grouped = Query("Score").select_aggregates(Aggregate("COUNT")).grouped_by("jid")
    rows = database.execute(grouped)
    assert {row["jid"]: row["COUNT(*)"] for row in rows} == {1: 2, 2: 1, 3: 1}
    with pytest.raises(ValueError, match="GROUP BY"):
        database.aggregate(grouped)


# -- memory index narrowing ---------------------------------------------------------------


def _indexed_table() -> Table:
    from repro.db.schema import Column, TableSchema

    schema = TableSchema(
        "T",
        (
            Column("id", ColumnType.INTEGER, primary_key=True),
            Column("jid", ColumnType.INTEGER, indexed=True),
        ),
    )
    table = Table(schema)
    for jid in (1, 1, 2, 3, None):
        table.insert({"jid": jid})
    return table


def test_candidate_rows_narrow_in_list_via_index():
    table = _indexed_table()
    candidates = table.candidate_rows(InList(col("jid"), (1, 3)))
    assert sorted(row["jid"] for row in candidates) == [1, 1, 3]


def test_candidate_rows_in_list_skips_null_bucket():
    table = _indexed_table()
    # NULL never compares equal: the NULL-keyed bucket must not be probed.
    candidates = table.candidate_rows(InList(col("jid"), (2, None)))
    assert [row["jid"] for row in candidates] == [2]


def test_candidate_rows_is_null_reads_null_bucket():
    from repro.db.expr import IsNull

    table = _indexed_table()
    candidates = table.candidate_rows(IsNull(col("jid")))
    assert [row["jid"] for row in candidates] == [None]
    # IS NOT NULL cannot use a single bucket: full scan.
    assert len(table.candidate_rows(IsNull(col("jid"), negated=True))) == 5


def test_bounded_pushdown_matches_after_index_narrowing(database):
    """End to end: the bounded outer query (jid IN subselect) returns the
    same records whether or not the memory engine narrows via the index."""
    from repro.db.query import plan_bounded

    _seed_scores(database)
    bounded = plan_bounded(Query("Score"), "jid", 2)
    rows = database.execute(bounded)
    assert sorted({row["jid"] for row in rows}) == [1, 2]
