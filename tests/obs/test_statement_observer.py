"""The backend statement-observer hook: events, parity, trace integration."""

import pytest

from repro import obs
from repro.db import Database, MemoryBackend, SqliteBackend, StatementLog
from repro.db.expr import eq
from repro.db.observe import insert_summary, replace_summary
from repro.db.query import Aggregate, Query
from repro.db.schema import ColumnType, SchemaError


def _database(kind):
    backend = MemoryBackend() if kind == "memory" else SqliteBackend()
    database = Database(backend)
    database.define_table(
        "Paper",
        jid=ColumnType.INTEGER,
        jvars=ColumnType.TEXT,
        title=ColumnType.TEXT,
        score=ColumnType.INTEGER,
    )
    return database, backend


def _seed(database):
    database.insert_many(
        "Paper",
        [
            {"jid": 1, "jvars": "", "title": "a", "score": 1},
            {"jid": 2, "jvars": "", "title": "b", "score": 2},
        ],
    )


@pytest.fixture(params=["memory", "sqlite"])
def observed(request):
    database, backend = _database(request.param)
    log = StatementLog(backend)
    yield database, backend, log
    log.detach()
    if request.param == "sqlite":
        database.close()


def test_events_carry_kind_sql_rows_and_timing(observed):
    database, _backend, log = observed
    _seed(database)
    rows = database.execute(Query(table="Paper").filter(eq("title", "a")))
    assert len(rows) == 1
    kinds = [event.kind for event in log.events]
    assert kinds == ["INSERT", "SELECT"]
    insert, select = log.events
    assert insert.sql == insert_summary("Paper", 2)
    assert insert.rows == 2
    assert select.sql == 'SELECT * FROM "Paper" WHERE title = ?'
    assert select.params == ("a",)
    assert select.rows == 1
    assert all(event.duration >= 0 for event in log.events)


def test_update_delete_and_replace_report_affected_rows(observed):
    database, _backend, log = observed
    _seed(database)
    log.clear()
    changed = database.update("Paper", eq("title", "a"), score=9)
    deleted = database.delete("Paper", eq("title", "b"))
    database.replace_rows(
        "Paper", eq("jid", 1),
        [{"jid": 1, "jvars": "", "title": "a2", "score": 9}],
    )
    assert (changed, deleted) == (1, 1)
    update, delete, replace = log.events
    assert update.kind == "UPDATE" and update.rows == 1
    assert update.sql.startswith('UPDATE "Paper" SET "score" = ?')
    assert delete.kind == "DELETE" and delete.rows == 1
    assert replace.kind == "REPLACE"
    assert replace.sql == replace_summary("Paper", 1, 1)


def test_both_backends_emit_identical_event_streams():
    streams = {}
    for kind in ("memory", "sqlite"):
        database, backend = _database(kind)
        with StatementLog(backend) as log:
            database.insert_many("Paper", [])
            _seed(database)
            database.execute(Query(table="Paper"))
            database.update("Paper", eq("title", "a"), score=0)
            database.aggregate(Query(table="Paper").select_aggregates(Aggregate("COUNT")))
            database.delete("Paper", eq("title", "b"))
            streams[kind] = [(e.kind, e.sql, e.rows) for e in log.events]
        if kind == "sqlite":
            database.close()
    assert streams["memory"] == streams["sqlite"]


@pytest.mark.parametrize("kind", ["memory", "sqlite"])
def test_an_empty_batch_insert_reports_and_publishes_nothing(kind):
    database, backend = _database(kind)
    stamp = backend.invalidation.stamp()
    with StatementLog(backend) as log:
        for empty in ([], iter(())):
            assert database.insert_many("Paper", empty) == []
        for empty in ([], iter(())):
            with pytest.raises(SchemaError, match="Nope"):
                database.insert_many("Nope", empty)
    assert log.events == []
    assert backend.invalidation.stamp() == stamp
    database.close()


def test_observers_detach_and_support_multiple_listeners(observed):
    database, backend, log = observed
    second = StatementLog(backend)
    _seed(database)
    assert len(log) == len(second) == 1
    second.detach()
    _seed(database)
    assert len(log) == 2 and len(second) == 1


def test_database_observe_statements_attaches_to_its_backend():
    database, _backend = _database("sqlite")
    with database.observe_statements() as log:
        _seed(database)
        assert [event.kind for event in log.events] == ["INSERT"]
    database.close()


def test_no_observer_means_no_event_construction(observed):
    database, backend, log = observed
    log.detach()
    assert not backend._observing()
    _seed(database)
    assert log.events == []


def test_statements_feed_db_spans_and_counters_of_the_active_trace():
    database, _backend = _database("sqlite")
    with obs.tracing():
        with obs.trace("query") as trace_:
            _seed(database)
            database.execute(Query(table="Paper"))
    leaves = [span for span in trace_.root.children if span.name == "db.sql"]
    assert [leaf.attributes["kind"] for leaf in leaves] == ["INSERT", "SELECT"]
    select = leaves[1]
    assert select.attributes["sql"] == 'SELECT * FROM "Paper"'
    assert select.attributes["rows"] == 2
    assert select.duration is not None and select.duration >= 0
    assert trace_.counters["db.statements"] == 2
    assert trace_.counters["db.rows"] == 4  # 2 inserted + 2 selected
    database.close()
