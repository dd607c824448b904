"""Backend contract tests, run against both the memory engine and SQLite."""

import datetime
import sqlite3
from collections import Counter

import pytest

from repro.db import (
    Aggregate,
    Column,
    ColumnType,
    Database,
    MemoryBackend,
    Query,
    SqliteBackend,
    TableSchema,
    query_to_sql,
    schema_to_sql,
)
from repro.db.expr import FacetBranch, eq, ne
from repro.db.schema import SchemaError
from repro.db.sqlgen import django_style_sql, jacqueline_style_sql


EVENT_SCHEMA = TableSchema(
    "Event",
    (
        Column("id", ColumnType.INTEGER, primary_key=True),
        Column("name", ColumnType.TEXT),
        Column("location", ColumnType.TEXT, indexed=True),
        Column("attendees", ColumnType.INTEGER),
        Column("private", ColumnType.BOOLEAN, default=False),
        Column("starts", ColumnType.DATETIME),
        Column("jid", ColumnType.INTEGER, indexed=True),
        Column("jvars", ColumnType.TEXT, default=""),
    ),
)

GUEST_SCHEMA = TableSchema(
    "Guest",
    (
        Column("id", ColumnType.INTEGER, primary_key=True),
        Column("event_id", ColumnType.INTEGER, indexed=True),
        Column("name", ColumnType.TEXT),
        Column("jid", ColumnType.INTEGER),
        Column("jvars", ColumnType.TEXT, default=""),
    ),
)


def seeded(db: Database) -> Database:
    db.create_table(EVENT_SCHEMA)
    db.create_table(GUEST_SCHEMA)
    db.insert(
        "Event",
        name="Party",
        location="Dagstuhl",
        attendees=20,
        private=True,
        starts=datetime.datetime(2026, 6, 16, 19, 0),
        jid=1,
        jvars="k=True",
    )
    db.insert("Event", name="Private event", location="Undisclosed", attendees=20, jid=1, jvars="k=False")
    db.insert("Event", name="Seminar", location="Aula", attendees=5, jid=2, jvars="")
    db.insert("Guest", event_id=1, name="alice", jid=1)
    db.insert("Guest", event_id=2, name="bob", jid=2)
    return db


def test_insert_select_roundtrip(database):
    db = seeded(database)
    rows = db.find("Event", location="Dagstuhl")
    assert len(rows) == 1
    row = rows[0]
    assert row["name"] == "Party"
    assert row["private"] is True
    assert row["starts"] == datetime.datetime(2026, 6, 16, 19, 0)
    assert db.get("Event", location="nowhere") is None


def test_primary_keys_autoincrement(database):
    db = seeded(database)
    ids = [row["id"] for row in db.rows("Event")]
    assert sorted(ids) == [1, 2, 3]


def test_update_and_delete(database):
    db = seeded(database)
    assert db.update("Event", eq("location", "Aula"), attendees=50) == 1
    assert db.get("Event", location="Aula")["attendees"] == 50
    assert db.delete("Event", eq("jid", 1)) == 2
    assert db.count("Event") == 1
    assert db.delete("Event") == 1
    assert db.count("Event") == 0


def _not_null_table(database):
    database.create_table(TableSchema("T", (
        Column("id", ColumnType.INTEGER, primary_key=True),
        Column("k", ColumnType.INTEGER, indexed=True),
        Column("n", ColumnType.TEXT, nullable=False),
    )))
    database.insert_many("T", [{"k": 1, "n": "x"} for _ in range(3)])


def test_failing_update_leaves_rows_and_indexes_unchanged(database):
    """A statement that fails part-way changes nothing: SQLite rolls it
    back, and the memory engine coerces every SET value before touching a
    row (or an index bucket)."""
    _not_null_table(database)
    with pytest.raises(Exception):
        database.update("T", eq("k", 1), k=2, n=None)
    with pytest.raises(Exception):
        database.update("T", eq("k", 1), id=9)  # one key for three rows
    with pytest.raises(Exception):
        database.update("T", eq("id", 1), id=2, k=2)  # a taken key
    assert sorted(row["id"] for row in database.rows("T", where=eq("k", 1))) == [1, 2, 3]
    assert database.rows("T", where=eq("k", 2)) == []


def test_an_update_of_the_primary_key_moves_the_row(database):
    """The row is found, and deleted, by its new key, and the next key
    assigned is above it."""
    _not_null_table(database)
    assert database.update("T", eq("id", 1), id=10) == 1
    assert database.get("T", id=10)["n"] == "x" and database.get("T", id=1) is None
    assert database.insert("T", k=2, n="y") == 11
    assert database.delete("T", eq("id", 10)) == 1
    assert sorted(row["id"] for row in database.rows("T")) == [2, 3, 11]


def test_update_matching_nothing_checks_columns_not_values(database):
    _not_null_table(database)
    with pytest.raises(SchemaError):
        database.update("T", eq("k", 5), missing=1)
    assert database.update("T", eq("k", 5), n=None) == 0


def test_order_by_and_limit(database):
    db = seeded(database)
    ordered = db.rows("Event", order_by=["attendees"], limit=2)
    assert [row["name"] for row in ordered][0] == "Seminar"
    descending = db.execute(db.query("Event").ordered_by("attendees", ascending=False))
    assert descending[0]["attendees"] == 20


def test_join_produces_qualified_columns(database):
    db = seeded(database)
    query = (
        db.query("Guest")
        .join("Event", "event_id", "jid")
        .filter(eq("Event.location", "Dagstuhl"))
    )
    rows = db.execute(query)
    # Only the secret facet row stores the real location, so exactly one of
    # jid=1's facet rows survives the filter -- the property the FORM's
    # unmarshalling relies on to guard query results (Section 3.1.1).
    assert len(rows) == 1
    row = rows[0]
    assert "Guest.name" in row and "Event.jvars" in row
    assert row["Event.jvars"] == "k=True"
    assert row["Event.name"] == "Party"
    assert row["Guest.name"] == "alice"
    # Joined BOOLEAN and DATETIME columns hold Python values, as a
    # single-table read's do, projected or not.
    starts = datetime.datetime(2026, 6, 16, 19, 0)
    assert row["Event.private"] is True and row["Event.starts"] == starts
    projected = db.execute(query.select("Guest.name", "Event.private", "Event.starts"))
    assert projected == [{"Guest.name": "alice", "Event.private": True, "Event.starts": starts}]


def test_a_join_names_the_stored_columns_of_an_older_table(tmp_path):
    """A SQLite file keeps a column its table's schema no longer declares
    (``CREATE TABLE IF NOT EXISTS``); a join's ``"T".*`` returns it, and
    every other column keeps its own name."""
    path = str(tmp_path / "older.db")
    connection = sqlite3.connect(path)
    connection.execute(
        'CREATE TABLE "Owner" (id INTEGER PRIMARY KEY, legacy TEXT DEFAULT \'old\', name TEXT)'
    )
    connection.commit()
    connection.close()
    backend = SqliteBackend(path)
    db = Database(backend)
    db.define_table("Owner", name=ColumnType.TEXT)
    db.define_table("Pet", owner_id=ColumnType.INTEGER, tame=ColumnType.BOOLEAN)
    db.insert_many("Owner", [{"name": "ada"}])
    db.insert_many("Pet", [{"owner_id": 1, "tame": True}])
    for query in (
        db.query("Pet").join("Owner", "owner_id", "id"),
        db.query("Owner").join("Pet", "id", "owner_id"),
    ):
        assert db.execute(query) == [{
            "Pet.id": 1, "Pet.owner_id": 1, "Pet.tame": True,
            "Owner.id": 1, "Owner.legacy": "old", "Owner.name": "ada",
        }]
    backend.close()


def test_join_on_nullable_keys_agrees_across_backends():
    """SQL's ``=`` never matches NULL: A(k) and B(k), each holding NULL and
    1, join to the one row (1, 1) on both backends."""
    joined = []
    for backend in (MemoryBackend(), SqliteBackend()):
        db = Database(backend)
        for table in ("A", "B"):
            db.define_table(table, k=ColumnType.INTEGER)
            db.insert_many(table, [{"k": None}, {"k": 1}])
        rows = db.execute(db.query("A").join("B", "k", "k"))
        joined.append(Counter((row["A.k"], row["B.k"]) for row in rows))
        db.close()
    assert joined == [Counter({(1, 1): 1})] * 2


def test_aggregates(database):
    db = seeded(database)
    assert db.count("Event") == 3
    events = db.query("Event")
    total = db.aggregate(events.select_aggregates(Aggregate("SUM", "attendees")))
    assert total == 45
    maximum = db.aggregate(events.select_aggregates(Aggregate("MAX", "attendees")))
    assert maximum == 20
    average = db.aggregate(events.select_aggregates(Aggregate("AVG", "attendees")))
    assert average == pytest.approx(15)
    per_jid = events.select_aggregates(Aggregate("COUNT")).grouped_by("jid")
    grouped = {row["jid"]: row["COUNT(*)"] for row in db.execute(per_jid)}
    assert grouped[1] == 2 and grouped[2] == 1


def test_unknown_table_raises(database):
    with pytest.raises(Exception):
        database.rows("Nope")


def test_duplicate_create_table_is_idempotent(database):
    database.create_table(EVENT_SCHEMA)
    database.create_table(EVENT_SCHEMA)
    assert database.has_table("Event")


def test_clear_keeps_schema(database):
    db = seeded(database)
    db.clear()
    assert db.count("Event") == 0
    db.insert("Event", name="again", location="x", attendees=1, jid=5, jvars="")
    assert db.count("Event") == 1


def test_define_table_shorthand(database):
    schema = database.define_table("Quick", title=ColumnType.TEXT, rank=ColumnType.INTEGER)
    assert schema.primary_key.name == "id"
    database.insert("Quick", title="a", rank=3)
    assert database.get("Quick", rank=3)["title"] == "a"


def test_memory_backend_duplicate_pk_rejected():
    db = Database(MemoryBackend())
    db.create_table(EVENT_SCHEMA)
    db.insert_row("Event", {"id": 7, "name": "x", "location": "y", "attendees": 0, "jid": 1, "jvars": ""})
    with pytest.raises(SchemaError):
        db.insert_row("Event", {"id": 7, "name": "z", "location": "y", "attendees": 0, "jid": 2, "jvars": ""})


def test_schema_to_sql_mentions_columns():
    sql = schema_to_sql(EVENT_SCHEMA)
    assert '"Event"' in sql and '"jvars" TEXT' in sql and "PRIMARY KEY" in sql


def test_query_to_sql_round_trips_through_sqlite():
    query = (
        Query(table="Event")
        .filter(eq("location", "Dagstuhl"))
        .ordered_by("attendees", ascending=False)
        .limited(5)
    )
    sql, params = query_to_sql(query)
    assert sql.startswith("SELECT *") and "ORDER BY" in sql and "LIMIT 5" in sql
    assert params == ["Dagstuhl"]


# -- write-through invalidation events (both backends via the `database` fixture) --


def _counters(db, table="Event"):
    """The bus counters a write of ``table`` bumps: the events published
    and the table's write generation."""
    return db.invalidation.events_published, db.invalidation.write_generation(table)


def test_insert_update_delete_publish_events(database):
    db = seeded(database)
    events, writes = _counters(db)
    db.insert("Event", name="x", location="y", attendees=1, jid=9, jvars="")
    assert _counters(db) == (events + 1, writes + 1)
    db.update("Event", eq("jid", 9), attendees=2)
    assert _counters(db) == (events + 2, writes + 2)
    db.delete("Event", eq("jid", 9))
    assert _counters(db) == (events + 3, writes + 3)


def test_no_op_writes_publish_nothing(database):
    db = seeded(database)
    counters = _counters(db)
    assert db.update("Event", eq("jid", 999), attendees=1) == 0
    assert db.delete("Event", eq("jid", 999)) == 0
    assert _counters(db) == counters


def test_write_generation_counters(database):
    db = seeded(database)
    before = db.invalidation.write_generation("Event")
    db.insert("Event", name="x", location="y", attendees=1, jid=9, jvars="")
    assert db.invalidation.write_generation("Event") == before + 1
    assert db.invalidation.write_generation("Guest") >= 0


def test_clear_publishes_wildcard(database):
    """``clear()`` publishes one event that bumps every table's write
    generation, tables no write ever announced included."""
    db = seeded(database)
    db.define_table("Unwritten", note=ColumnType.TEXT)
    tables = ("Event", "Guest", "Unwritten")
    events = db.invalidation.events_published
    before = [db.invalidation.write_generation(table) for table in tables]
    db.clear()
    assert db.invalidation.events_published == events + 1
    after = [db.invalidation.write_generation(table) for table in tables]
    assert after == [generation + 1 for generation in before]


def test_schema_changes_bump_schema_generation(database):
    db = seeded(database)
    generation = db.invalidation.schema_generation
    db.define_table("Extra", note=ColumnType.TEXT)
    assert db.invalidation.schema_generation == generation + 1
    events, writes = _counters(db, "Extra")
    db.drop_table("Extra")
    assert db.invalidation.schema_generation == generation + 2
    # dropped data invalidates like a write
    assert _counters(db, "Extra") == (events + 1, writes + 1)


def _facet_state(database, table):
    """``(may_have_facets, facet_branch_keys)`` of ``table``, checked to be
    one record: "may have facets" exactly when the keys are not the empty
    set."""
    may, keys = database.may_have_facets(table), database.facet_branch_keys(table)
    assert may == (keys != frozenset()), (table, may, keys)
    return may, keys


def _define_doc(database):
    database.define_table("Doc", jid=ColumnType.INTEGER, jvars=ColumnType.TEXT)


def _branches(database, nulls=0):
    """``{(key, polarity): jids}`` of the rows each ``FacetBranch`` of
    ``Doc`` selects, for the branches that select any.

    On the memory engine the table's facet-branch index must hold exactly
    the selected rows' ids, and ``nulls`` rows with a NULL ``jid`` or
    ``jvars``.  Rows keep exactly their columns on both backends.
    """
    selected = {
        (key, polarity): database.rows("Doc", where=FacetBranch("Doc", key, polarity))
        for key in ("title", "body") for polarity in (True, False)
    }
    if isinstance(database.backend, MemoryBackend):
        table = database.backend._table("Doc")
        index = table.branch_index()
        for (key, polarity), rows in selected.items():
            assert set(index.members("Doc", key, polarity)) == {row["id"] for row in rows}
        assert len(index.nulls) == nulls
        assert all(sorted(row) == ["id", "jid", "jvars"] for row in table.rows())
    assert all(sorted(row) == ["id", "jid", "jvars"] for row in database.rows("Doc"))
    return {
        branch: sorted(row["jid"] for row in rows) for branch, rows in selected.items() if rows
    }


def test_facet_state_is_one_record_per_table(database):
    """The backends' facet state, and the memory engine's facet-branch
    index, after every write verb, ``clear()``, drop and re-create."""
    assert _facet_state(database, "Doc") == (True, None)  # unknown table
    _define_doc(database)
    assert _facet_state(database, "Doc") == (False, frozenset())
    database.insert("Doc", jid=1, jvars="")
    assert _facet_state(database, "Doc") == (False, frozenset())
    assert _branches(database) == {}
    database.insert_many("Doc", [{"jid": 2, "jvars": "Doc.2.title=True"}])
    assert _facet_state(database, "Doc") == (True, frozenset({"title"}))
    assert _branches(database) == {("title", True): [2]}
    database.replace_rows("Doc", eq("jid", 2), [{"jid": 2, "jvars": "Doc.2.body=False"}])
    assert _facet_state(database, "Doc") == (True, frozenset({"title", "body"}))
    assert _branches(database) == {("body", False): [2]}
    database.update("Doc", eq("jid", 2), id=50)  # the index follows the row's key
    assert _branches(database) == {("body", False): [2]}
    # An UPDATE of jvars carries no row id to check the label against.
    database.update("Doc", eq("jid", 1), jvars="Doc.1.title=False")
    assert _facet_state(database, "Doc") == (True, None)
    assert _branches(database) == {("title", False): [1], ("body", False): [2]}
    database.update("Doc", eq("jid", 1), jid=7)  # now a foreign jid's label
    assert _branches(database) == {("body", False): [2]}
    database.delete("Doc", eq("jid", 2))
    assert _branches(database) == {}
    database.insert_many("Doc", [{"jid": 8, "jvars": "Doc.8.title=True"}])
    database.clear()
    assert _facet_state(database, "Doc") == (False, frozenset())
    assert _branches(database) == {}
    database.insert("Doc", jid=3, jvars="Doc.3.title=True,Doc.3.body=True")  # exotic
    assert _facet_state(database, "Doc") == (True, None)
    assert _branches(database) == {}
    database.drop_table("Doc")
    assert _facet_state(database, "Doc") == (True, None)
    _define_doc(database)
    assert _facet_state(database, "Doc") == (False, frozenset())
    database.insert_many("Doc", [{"jid": 4, "jvars": "Doc.4.title=True"}])
    assert _branches(database) == {("title", True): [4]}
    database.insert("Doc", jid=4, jvars="Doc.5.title=True")  # a foreign jid's label
    assert _facet_state(database, "Doc") == (True, None)
    # A NULL jid or jvars makes the branch test UNKNOWN: in no set.
    database.insert_many("Doc", [
        {"jid": None, "jvars": "Doc.None.title=True"}, {"jid": 4, "jvars": None},
    ])
    assert _branches(database, nulls=2) == {("title", True): [4]}
    database.update("Doc", eq("jvars", "Doc.None.title=True"), jid=9)
    assert _branches(database, nulls=1) == {("title", True): [4]}


@pytest.mark.parametrize(
    "backend", [MemoryBackend, lambda: MemoryBackend(use_indexes=False), SqliteBackend],
    ids=["memory", "memory-scan", "sqlite"],
)
def test_a_facet_branch_is_unknown_on_a_null_jid_or_jvars(backend):
    """``jvars = (? || jid || ?)`` is UNKNOWN when either column is NULL,
    so neither the branch test nor its negation selects such a row."""
    with Database(backend()) as database:
        database.define_table("T", jid=ColumnType.INTEGER, jvars=ColumnType.TEXT)
        database.insert_many("T", [
            {"id": 1, "jid": None, "jvars": "T.None.k=True"},
            {"id": 2, "jid": 5, "jvars": "T.5.k=True"},
            {"id": 3, "jid": None, "jvars": "T.5.k=False"},
            {"id": 4, "jid": 6, "jvars": None},
        ])
        branch = FacetBranch("T", "k", True)
        assert [
            sorted(row["id"] for row in database.rows("T", where=where))
            for where in (branch, ~branch)
        ] == [[2], []]


@pytest.mark.parametrize("label", ["Doc.1.title=True", "pc=True"], ids=["canonical", "exotic"])
def test_an_adopted_sqlite_file_keeps_one_facet_record(tmp_path, label):
    path = str(tmp_path / "docs.sqlite")
    for rows in ([{"jid": 1, "jvars": ""}, {"jid": 1, "jvars": label}], []):
        database = Database(SqliteBackend(path))
        _define_doc(database)  # the second pass adopts the first pass's rows
        database.insert_many("Doc", rows)
        expected_keys = frozenset({"title"}) if label.startswith("Doc") else None
        assert _facet_state(database, "Doc") == (True, expected_keys)
        database.close()


def test_insert_many_single_event_and_rows_present(database):
    db = seeded(database)
    events, writes = _counters(db)
    rows = [
        {"name": f"bulk{i}", "location": "Hall", "attendees": i, "jid": 100 + i, "jvars": ""}
        for i in range(10)
    ]
    pks = db.insert_many("Event", rows)
    assert len(pks) == 10 and len(set(pks)) == 10
    assert _counters(db) == (events + 1, writes + 1)
    stored = db.find("Event", location="Hall")
    assert sorted(row["name"] for row in stored) == sorted(f"bulk{i}" for i in range(10))
    # Returned primary keys address the inserted rows.
    by_pk = db.get("Event", id=pks[0])
    assert by_pk is not None and by_pk["name"] == "bulk0"


def test_insert_many_with_explicit_ids(database):
    db = seeded(database)
    rows = [
        {"id": 50, "name": "fixed", "location": "L", "attendees": 0, "jid": 50, "jvars": ""},
        {"name": "auto", "location": "L", "attendees": 0, "jid": 51, "jvars": ""},
    ]
    pks = db.insert_many("Event", rows)
    assert pks[0] == 50
    assert db.get("Event", id=50)["name"] == "fixed"
    assert db.get("Event", id=pks[1])["name"] == "auto"


def test_insert_many_partial_failure_never_leaves_silent_rows(database):
    """A failing batch must not leave rows invisible to the invalidation
    bus: either nothing is committed (SQLite rolls the transaction back) or
    the committed prefix is announced (memory engine)."""
    db = seeded(database)
    events, writes = _counters(db)
    rows = [
        {"id": 200, "name": "ok", "location": "L", "attendees": 0, "jid": 70, "jvars": ""},
        {"id": 200, "name": "dup", "location": "L", "attendees": 0, "jid": 71, "jvars": ""},
    ]
    with pytest.raises(Exception):
        db.insert_many("Event", rows)  # duplicate primary key fails mid-batch
    inserted = db.find("Event", jid=70)
    if inserted:
        assert _counters(db) == (events + 1, writes + 1)  # committed prefix announced
    else:
        assert _counters(db) == (events, writes)  # rolled back: nothing to announce


def test_insert_many_pks_correct_after_deleting_max_id_row(database):
    db = seeded(database)
    max_id = max(row["id"] for row in db.rows("Event"))
    db.delete("Event", eq("id", max_id))
    rows = [
        {"name": f"after{i}", "location": "L", "attendees": 0, "jid": 80 + i, "jvars": ""}
        for i in range(2)
    ]
    pks = db.insert_many("Event", rows)
    for pk, expected in zip(pks, ("after0", "after1")):
        stored = db.get("Event", id=pk)
        assert stored is not None and stored["name"] == expected


def test_insert_many_empty_is_a_no_op(database):
    db = seeded(database)
    counters = _counters(db)
    assert db.insert_many("Event", []) == []
    assert _counters(db) == counters


def test_table2_sql_translation_shapes():
    """Table 2: the Jacqueline translation adds jid/jvars and joins on jid."""
    kwargs = dict(
        base_table="EventGuest",
        columns=["event", "guest"],
        join_table="UserProfile",
        fk_column="guest_id",
        where_column="name",
        where_value="Alice",
    )
    django_sql = django_style_sql(**kwargs)
    jacqueline_sql = jacqueline_style_sql(**kwargs)
    assert "UserProfile.id" in django_sql and "jvars" not in django_sql
    assert "UserProfile.jid" in jacqueline_sql
    assert "EventGuest.jid" in jacqueline_sql
    assert "EventGuest.jvars" in jacqueline_sql
    assert "UserProfile.jvars" in jacqueline_sql
