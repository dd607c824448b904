"""Plan-regression gate: index choice must not change any bench's statements.

Every statement-shape benchmark (``benchmarks/bench_*.py`` with a
``run(rows, smoke)`` gate) already asserts its scenario's captured SQL --
one SELECT per bounded fetch, the jid subselect, the pushed-down
aggregate, the single-statement writes.  Replaying them here, CI-sized,
proves no extra statement and no worse plan crept into any scenario: a
regression turns a bench's internal assertions red, which turns this
tier-1 test red.

A direct FORM-level check rides along: with index DDL enabled vs
suppressed, an indexed-field workload must produce byte-identical
statement sequences on SQLite -- indexes are invisible in the SQL.
"""

import importlib.util
import os
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

GATED_BENCHES = [
    "bench_limit_pushdown",
    "bench_aggregate_pushdown",
    "bench_write_pushdown",
    "bench_policy_pushdown",
]


def _load_bench(name):
    path = os.path.join(REPO, "benchmarks", f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # Registered so dataclass/typing machinery inside the module resolves.
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", GATED_BENCHES)
def test_bench_scenario_statements_and_plans_hold(name):
    module = _load_bench(name)
    assert module.run(rows=120, smoke=True) == 0, (
        f"{name} regressed; its own stderr lists the violated "
        "statement/plan assertions"
    )


def test_index_ddl_never_changes_the_statement_stream():
    from repro.db import Database, SqliteBackend, StatementLog
    from repro.form import FORM, CharField, IntegerField, JModel, use_form

    class PlanRegressionNote(JModel):
        title = CharField(max_length=64, indexed=True)
        score = IntegerField(indexed=True)

    streams = {}
    for emit_indexes in (True, False):
        backend = SqliteBackend(emit_indexes=emit_indexes)
        database = Database(backend)
        form = FORM(database)
        form.register_all([PlanRegressionNote])
        with use_form(form), StatementLog(backend) as log:
            with use_form(form):
                PlanRegressionNote.objects.bulk_create(
                    [
                        PlanRegressionNote(title=f"t{i:03d}", score=i % 7)
                        for i in range(40)
                    ]
                )
                PlanRegressionNote.objects.filter(score=3).fetch()
                PlanRegressionNote.objects.filter(score=3).update(score=4)
                PlanRegressionNote.objects.filter(score=6).delete()
                PlanRegressionNote.objects.all().count()
            streams[emit_indexes] = list(log.statements)
        database.close()
    assert streams[True] == streams[False]
    assert streams[True], "the workload should have produced statements"
