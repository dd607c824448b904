"""NULL placement under plain ORDER BY must match across backends.

Pre-existing divergence (ROADMAP): the memory engine sorts ``None`` last
ascending (first descending) while bare SQLite sorts NULL first ascending.
``query_to_sql`` now renders a ``(col IS NULL)`` sort flag ahead of every
plain order term, pinning SQLite to the memory convention -- the same
discipline the bounded subquery's grouped ordering already used.  Within
ties of the order key the memory engine keeps primary-key order.
"""

from repro.db import Database, MemoryBackend, SqliteBackend
from repro.db.query import Query
from repro.db.schema import ColumnType
from repro.db.sqlgen import query_to_sql


def _seed(database: Database) -> None:
    database.define_table("T", name=ColumnType.TEXT, rank=ColumnType.INTEGER)
    database.insert_many(
        "T",
        [
            {"name": "ada", "rank": 2},
            {"name": None, "rank": 1},
            {"name": "bob", "rank": None},
            {"name": None, "rank": 3},
        ],
    )


def test_plain_order_by_renders_is_null_flag():
    statement, _params = query_to_sql(Query("T").ordered_by("name"))
    assert statement == (
        'SELECT * FROM "T" ORDER BY ("name" IS NULL) ASC, "name" ASC'
    )
    statement, _params = query_to_sql(Query("T").ordered_by("name", ascending=False))
    assert statement.endswith('ORDER BY ("name" IS NULL) DESC, "name" DESC')


def test_row_order_with_nulls_is_backend_identical():
    orders = {}
    for name, database in (
        ("memory", Database(MemoryBackend())),
        ("sqlite", Database(SqliteBackend())),
    ):
        _seed(database)
        ascending = database.execute(Query("T").ordered_by("name").ordered_by("rank"))
        descending = database.execute(Query("T").ordered_by("name", ascending=False))
        orders[name] = (
            [(row["name"], row["rank"]) for row in ascending],
            [row["name"] for row in descending],
        )
        database.close()
    assert orders["memory"] == orders["sqlite"]
    ascending, descending = orders["memory"]
    # NULL names sort last ascending...
    assert ascending == [("ada", 2), ("bob", None), (None, 1), (None, 3)]
    # ...and first descending (the memory engine's convention, now shared).
    assert descending[:2] == [None, None]


def test_ordered_limit_keeps_same_rows_on_both_backends():
    kept = {}
    for name, database in (
        ("memory", Database(MemoryBackend())),
        ("sqlite", Database(SqliteBackend())),
    ):
        _seed(database)
        rows = database.execute(Query("T").ordered_by("rank").limited(2))
        kept[name] = [row["rank"] for row in rows]
        database.close()
    # Without the flag SQLite would keep the NULL-ranked row first.
    assert kept["memory"] == kept["sqlite"] == [1, 2]


def test_memory_order_by_keeps_primary_key_order_within_ties():
    """Duplicate ORDER BY keys keep ascending primary-key order, ascending
    and descending, bounded or not, with indexes or forced to scan: the
    memory engine's sort is stable."""
    expected = {
        True: [1, 3, 6, 2, 5, 8, 4, 7],
        False: [4, 7, 2, 5, 8, 1, 3, 6],
    }
    for use_indexes in (True, False):
        database = Database(MemoryBackend(use_indexes=use_indexes))
        database.define_table("T", rank=ColumnType.INTEGER)
        database.insert_many(
            "T", [{"rank": rank} for rank in (1, 2, 1, None, 2, 1, None, 2)]
        )
        for ascending in (True, False):
            for limit in (None, 4):
                query = Query("T").ordered_by("rank", ascending=ascending)
                if limit is not None:
                    query = query.limited(limit)
                ids = [row["id"] for row in database.execute(query)]
                assert ids == expected[ascending][:limit], (use_indexes, ascending, limit)
        database.close()
