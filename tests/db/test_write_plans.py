"""Set-oriented write plans: rendering, execution and backend parity.

Covers :func:`~repro.db.query.plan_update` / :func:`plan_delete` /
:func:`plan_keys`, the sqlgen UPDATE/DELETE rendering, and
``Backend.execute_update`` / ``execute_delete`` on both backends -- the
memory engine must mutate exactly the rows SQLite's one statement touches.
"""

import pytest

from repro.db import Database, MemoryBackend, SqliteBackend, StatementLog
from repro.db.expr import eq
from repro.db.query import DeletePlan, Query, UpdatePlan, plan_delete, plan_keys, plan_update
from repro.db.schema import ColumnType
from repro.db.sqlgen import delete_to_sql, update_to_sql


def _seed(database: Database) -> None:
    database.define_table(
        "Doc", jid=ColumnType.INTEGER, title=ColumnType.TEXT, owner=ColumnType.TEXT
    )
    rows = []
    for jid, owner in ((1, "ada"), (2, "ada"), (3, "bob")):
        # Two facet rows per record, one "secret" and one "public".
        rows.append({"jid": jid, "title": f"secret{jid}", "owner": owner})
        rows.append({"jid": jid, "title": "[redacted]", "owner": owner})
    database.insert_many("Doc", rows)


@pytest.fixture(params=["memory", "sqlite"])
def database(request):
    backend = MemoryBackend() if request.param == "memory" else SqliteBackend()
    db = Database(backend)
    _seed(db)
    yield db
    db.close()


# -- rendering --------------------------------------------------------------------------


def test_plan_update_renders_jid_subselect():
    plan = plan_update(
        Query("Doc").filter(eq("owner", "ada")), {"owner": "eve"}, "jid"
    )
    statement, params = update_to_sql(plan)
    assert statement == (
        'UPDATE "Doc" SET "owner" = ? '
        'WHERE jid IN (SELECT DISTINCT "jid" FROM "Doc" WHERE owner = ?)'
    )
    assert params == ["eve", "ada"]


def test_plan_delete_without_filters_has_no_where():
    assert delete_to_sql(plan_delete(Query("Doc"), "jid")) == ('DELETE FROM "Doc"', [])


def test_bounded_plan_keeps_order_and_limit_inside_subselect():
    query = Query("Doc").filter(eq("owner", "ada")).ordered_by("title").limited(1)
    statement, _params = delete_to_sql(plan_delete(query, "jid"))
    assert statement.startswith('DELETE FROM "Doc" WHERE jid IN (SELECT')
    assert 'LIMIT 1' in statement
    # Ordered bounded subselects use the deterministic grouped form.
    assert 'GROUP BY "jid"' in statement and 'MIN("title")' in statement


def test_unbounded_plan_drops_ordering():
    query = Query("Doc").filter(eq("owner", "ada")).ordered_by("title")
    statement, _params = update_to_sql(plan_update(query, {"owner": "eve"}, "jid"))
    assert "ORDER BY" not in statement


def test_plan_keys_qualifies_under_joins():
    query = Query("Doc").join("Review", "jid", "doc")
    sub = plan_keys(query, "jid")
    assert sub.columns == ("Doc.jid",)
    assert sub.distinct


def test_plan_update_rejects_empty_assignments():
    with pytest.raises(ValueError):
        plan_update(Query("Doc"), {}, "jid")


def test_plans_report_tables_read():
    plan = plan_delete(Query("Doc").join("Review", "jid", "doc"), "jid")
    assert plan.tables_read() == ("Doc", "Review")
    assert DeletePlan("Doc").tables_read() == ("Doc",)
    assert UpdatePlan("Doc", {"owner": "x"}).tables_read() == ("Doc",)


# -- execution --------------------------------------------------------------------------


def test_execute_update_covers_whole_records(database):
    plan = plan_update(
        database.query("Doc").filter(eq("title", "secret1")), {"owner": "eve"}, "jid"
    )
    assert database.execute_update(plan) == 2  # both facet rows of jid 1
    owners = {row["owner"] for row in database.find("Doc", jid=1)}
    assert owners == {"eve"}
    assert {row["owner"] for row in database.find("Doc", jid=2)} == {"ada"}


def test_execute_delete_covers_whole_records(database):
    plan = plan_delete(database.query("Doc").filter(eq("title", "secret2")), "jid")
    assert database.execute_delete(plan) == 2
    assert database.find("Doc", jid=2) == []
    assert database.count("Doc") == 4


def test_bounded_execute_delete_removes_first_records_only(database):
    query = database.query("Doc").filter(eq("owner", "ada")).ordered_by("jid").limited(1)
    assert database.execute_delete(plan_delete(query, "jid")) == 2
    assert database.find("Doc", jid=1) == []
    assert len(database.find("Doc", jid=2)) == 2


def test_backend_parity_on_update():
    results = []
    for backend in (MemoryBackend(), SqliteBackend()):
        with Database(backend) as db:
            _seed(db)
            plan = plan_update(
                db.query("Doc").filter(eq("owner", "ada")).ordered_by("jid").limited(1),
                {"owner": "eve"},
                "jid",
            )
            changed = db.execute_update(plan)
            rows = sorted(
                (row["jid"], row["title"], row["owner"])
                for row in db.rows("Doc")
            )
            results.append((changed, rows))
    assert results[0] == results[1]


def test_sqlite_write_plans_execute_one_statement():
    backend = SqliteBackend()
    log = StatementLog(backend)
    db = Database(backend)
    _seed(db)
    log.clear()
    db.execute_update(
        plan_update(db.query("Doc").filter(eq("owner", "ada")), {"owner": "eve"}, "jid")
    )
    db.execute_delete(
        plan_delete(db.query("Doc").filter(eq("owner", "bob")), "jid")
    )
    assert len(log.statements) == 2
    update_sql, delete_sql = log.statements
    assert update_sql.startswith('UPDATE "Doc" SET') and "jid IN (SELECT" in update_sql
    assert delete_sql.startswith('DELETE FROM "Doc"') and "jid IN (SELECT" in delete_sql
    db.close()


def test_write_plans_publish_invalidation(database):
    bus = database.invalidation
    events = bus.events_published
    database.execute_update(
        plan_update(database.query("Doc").filter(eq("owner", "ada")), {"owner": "eve"}, "jid")
    )
    assert bus.events_published == events + 1
    database.execute_delete(plan_delete(database.query("Doc"), "jid"))
    assert bus.events_published == events + 2
    # A write matching nothing publishes nothing.
    database.execute_delete(
        plan_delete(database.query("Doc").filter(eq("owner", "nobody")), "jid")
    )
    assert bus.events_published == events + 2
