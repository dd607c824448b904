"""Backend contract tests, run against both the memory engine and SQLite."""

import datetime
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
from repro.db.expr import eq, ne
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
    assert sorted(row["id"] for row in database.rows("T", where=eq("k", 1))) == [1, 2, 3]
    assert database.rows("T", where=eq("k", 2)) == []


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


def test_facet_state_is_one_record_per_table(database):
    assert _facet_state(database, "Doc") == (True, None)  # unknown table
    _define_doc(database)
    assert _facet_state(database, "Doc") == (False, frozenset())
    database.insert("Doc", jid=1, jvars="")
    assert _facet_state(database, "Doc") == (False, frozenset())
    database.insert_many("Doc", [{"jid": 2, "jvars": "Doc.2.title=True"}])
    assert _facet_state(database, "Doc") == (True, frozenset({"title"}))
    database.replace_rows("Doc", eq("jid", 2), [{"jid": 2, "jvars": "Doc.2.body=False"}])
    assert _facet_state(database, "Doc") == (True, frozenset({"title", "body"}))
    # An UPDATE of jvars carries no row id to check the label against.
    database.update("Doc", eq("jid", 1), jvars="Doc.1.title=False")
    assert _facet_state(database, "Doc") == (True, None)
    database.clear()
    assert _facet_state(database, "Doc") == (False, frozenset())
    database.insert("Doc", jid=3, jvars="Doc.3.title=True,Doc.3.body=True")  # exotic
    assert _facet_state(database, "Doc") == (True, None)
    database.drop_table("Doc")
    assert _facet_state(database, "Doc") == (True, None)
    _define_doc(database)
    assert _facet_state(database, "Doc") == (False, frozenset())
    database.insert("Doc", jid=4, jvars="Doc.5.title=True")  # a foreign jid's label
    assert _facet_state(database, "Doc") == (True, None)


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
