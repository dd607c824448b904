"""The memory engine's access-path rule, end to end.

The rule: a read probes a hash index when its WHERE holds an ``= literal``,
``IN (...)``, ``IS NULL`` or ``IS literal`` test of a hash-indexed column,
directly or under AND, and scans the heap otherwise.  The probe is *exact*
(its buckets are the matching rows) only when that test is the whole WHERE
and is not ``= NULL``.  One table of WHERE shapes runs through
:func:`repro.db.planner.choose_plan`, through ``Database.explain()`` and
through one executed read, whose ``plan.index.*`` counter must name the
same path and whose rows must equal the forced scan's.  SQLite's index DDL
and ``explain()``'s freedom from side effects ride along.
"""

import pytest

from repro import obs
from repro.db import (
    Column,
    ColumnType,
    Database,
    MemoryBackend,
    SqliteBackend,
    TableSchema,
    between,
    choose_plan,
    gt,
)
from repro.db.expr import (
    AndExpr,
    Comparison,
    InList,
    IsNull,
    Literal,
    NullSafeEq,
    OrExpr,
    col,
    eq,
)
from repro.obs.metrics import COUNTER_GLOSSARY


def _schema():
    return TableSchema(
        "T",
        (
            Column("id", ColumnType.INTEGER, primary_key=True),
            Column("tag", ColumnType.TEXT, indexed=True),
            Column("score", ColumnType.INTEGER),
        ),
    )


ROWS = [
    {"tag": tag, "score": n % 4}
    for n, tag in enumerate(["x", "y", None, "x", "z", "y", None, "x", "x"])
]

PROBE = ("hash-probe", "tag", True)
SUPERSET = ("hash-probe", "tag", False)
SCAN = ("full-scan", None, False)

#: The bare probe shapes: (id, WHERE, the path it takes alone).
LEAVES = [
    ("eq-literal", eq("tag", "x"), PROBE),
    ("eq-null", Comparison("=", col("tag"), Literal(None)), SUPERSET),
    ("in-with-null", InList(col("tag"), ("x", None, "z")), PROBE),
    ("in-unhashable", InList(col("tag"), ("x", ["y"])), SCAN),
    ("is-null", IsNull(col("tag")), PROBE),
    ("is-literal", NullSafeEq(col("tag"), Literal("y")), PROBE),
]

#: Every shape: each leaf bare and under AND (where its probe stays but is
#: no longer exact), plus the shapes no probe serves.
SHAPES = (
    LEAVES
    + [
        (f"and-{name}", AndExpr(gt("score", 0), where), SCAN if path == SCAN else SUPERSET)
        for name, where, path in LEAVES
    ]
    + [
        ("or", OrExpr(eq("tag", "x"), eq("tag", "y")), SCAN),
        ("range", between("tag", "x", "y"), SCAN),
        ("unindexed-column", eq("score", 2), SCAN),
        ("no-where", None, SCAN),
    ]
)


def _loaded(backend):
    database = Database(backend)
    database.create_table(_schema())
    database.insert_many("T", ROWS)
    return database


@pytest.mark.parametrize("use_indexes", [True, False], ids=["indexed", "forced-scan"])
@pytest.mark.parametrize(
    "where, path", [shape[1:] for shape in SHAPES], ids=[shape[0] for shape in SHAPES]
)
def test_each_shape_takes_the_path_the_rule_names(where, path, use_indexes):
    access, column, exact = path if use_indexes else SCAN
    chosen = choose_plan(where, {"tag"}, use_indexes)
    assert (chosen.kind, chosen.column, chosen.exact) == (access, column, exact)

    with _loaded(MemoryBackend(use_indexes=use_indexes)) as database, \
            _loaded(MemoryBackend(use_indexes=False)) as oracle:
        query = database.query("T")
        if where is not None:
            query = query.filter(where)
        reported = database.explain(query)["chosen_plan"]
        assert reported == chosen.describe()
        assert reported["access"] == access
        if column is not None:
            assert (reported["column"], reported["exact"]) == (column, exact)
            assert reported["index"] == f"hash:{column}"

        obs.reset()
        with obs.tracing():
            rows = database.execute(query)
        counted = {
            name: obs.totals.get(f"plan.index.{name}")
            for name in ("hash_probe", "full_scan")
        }
        obs.reset()
        if where is None:  # a read without WHERE plans nothing
            assert counted == {"hash_probe": 0, "full_scan": 0}
        else:
            assert counted[access.replace("-", "_")] == 1
            assert sum(counted.values()) == 1
        assert rows == oracle.execute(query)


def test_every_access_path_counter_is_in_the_glossary():
    for name in ("plan.index.hash_probe", "plan.index.full_scan"):
        assert name in COUNTER_GLOSSARY


# -- SQLite and explain() --------------------------------------------------------------


def test_sqlite_explain_reports_index_backed_plan_and_ddl():
    with _loaded(SqliteBackend()) as database:
        report = database.explain(database.query("T").filter(eq("tag", "x")))
        assert any("idx_T_tag" in line for line in report["sqlite_plan"])
        assert report["index_ddl"] == [
            'CREATE INDEX IF NOT EXISTS "idx_T_tag" ON "T" ("tag")'
        ]


def test_sqlite_forced_scan_emits_no_index_ddl():
    backend = SqliteBackend(emit_indexes=False)
    with Database(backend) as database:
        database.create_table(_schema())
        assert backend.index_ddl() == []


def test_explain_executes_nothing_and_emits_no_statement_events():
    for backend in (MemoryBackend(), SqliteBackend()):
        with _loaded(backend) as database:
            with database.observe_statements() as log:
                database.explain(database.query("T").filter(eq("tag", "x")))
            assert log.statements == []
