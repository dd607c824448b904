"""Set-oriented writes: single-statement UPDATE/DELETE vs. per-record loops.

Before the write planners, a bulk edit was fetch -> mutate -> per-instance
``save()`` (each a full facet-row rewrite under the save lock) and
``QuerySet.delete()`` unmarshalled every matching instance to issue one
DELETE per jid.  Now non-policied writes outside a path condition compile
to one statement::

    UPDATE "T" SET col = ? WHERE jid IN (SELECT DISTINCT "jid" FROM "T" WHERE ...)
    DELETE FROM "T"        WHERE jid IN (SELECT DISTINCT "jid" FROM "T" WHERE ...)

This benchmark verifies, per backend (memory engine and SQLite):

* **single statement**: the fast-path update and delete each issue exactly
  one statement, carrying the jid subselect (asserted on captured SQL
  against SQLite);
* **correctness**: the set-oriented write leaves the table bit-for-bit
  identical (modulo row ids) to the per-record loop -- policied title
  facets preserved, non-matching records untouched -- and both backends
  agree;
* **speedup**: at 10k records (20k facet rows) the fast path is >=5x
  faster than the per-record loop for update and delete (full run only;
  ``--smoke`` checks shape and parity at CI size).

Usage::

    python benchmarks/bench_write_pushdown.py            # full run (10k rows)
    python benchmarks/bench_write_pushdown.py --smoke    # CI-sized run

Exits non-zero on any violation, so CI can gate on it.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Tuple

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.bench.timing import time_best  # noqa: E402
from repro.db import (  # noqa: E402
    Database,
    MemoryBackend,
    SqliteBackend,
    StatementLog,
)
from repro.form import (  # noqa: E402
    CharField,
    FORM,
    IntegerField,
    JModel,
    jacqueline,
    label_for,
    use_form,
    viewer_context,
)

KEEPERS = 50  # records that must survive the delete (owner="bob")


class BenchRecord(JModel):
    """Two facet rows per record: a public and a secret title."""

    title = CharField(max_length=64)
    owner = CharField(max_length=64)
    category = CharField(max_length=32, default="inbox")

    @staticmethod
    def jacqueline_get_public_title(record):
        return "[redacted]"

    @staticmethod
    @label_for("title")
    @jacqueline
    def jacqueline_restrict_title(record, viewer):
        return viewer is not None and getattr(viewer, "name", None) == record.owner


class Viewer:
    def __init__(self, name: str) -> None:
        self.name = name


def _build_form(backend_factory, rows: int) -> Tuple[FORM, Database]:
    database = Database(backend_factory())
    form = FORM(database)
    form.register_all([BenchRecord])
    with use_form(form):
        BenchRecord.objects.bulk_create(
            [
                BenchRecord(title=f"title{index:06d}", owner="alice")
                for index in range(rows)
            ]
            + [
                BenchRecord(title=f"keep{index:04d}", owner="bob")
                for index in range(KEEPERS)
            ]
        )
    return form, database


def _snapshot(database: Database) -> List[Tuple]:
    """Table contents modulo row ids (the loop path re-inserts rows)."""
    return sorted(
        (row["jid"], row["jvars"], row["title"], row["owner"], row["category"])
        for row in database.rows("BenchRecord")
    )


def _loop_update(viewer: Viewer) -> int:
    """The pre-redesign path: fetch every record, mutate, save one by one."""
    with viewer_context(viewer):
        records = BenchRecord.objects.filter(owner="alice").fetch()
    for record in records:
        record.category = "archived"
        record.save()
    return len(records)


def _loop_delete(viewer: Viewer) -> int:
    """The pre-redesign path: unmarshal every instance, delete per record."""
    with viewer_context(viewer):
        records = BenchRecord.objects.filter(owner="alice").fetch()
    for record in records:
        record.delete()
    return len(records)


def run(rows: int, smoke: bool) -> int:
    failures: List[str] = []
    viewer = Viewer("alice")
    snapshots = {}
    timings = {}

    for backend_name, backend_factory in (
        ("memory", MemoryBackend),
        ("sqlite", SqliteBackend),
    ):
        fast_form, fast_db = _build_form(backend_factory, rows)
        loop_form, loop_db = _build_form(backend_factory, rows)

        # -- bulk update: one statement vs. fetch+save loop --------------------
        log = StatementLog(fast_db) if backend_name == "sqlite" else None
        with use_form(fast_form):
            if log is not None:
                log.clear()
            fast_update_time, changed = time_best(
                lambda: BenchRecord.objects.filter(owner="alice").update(
                    category="archived"
                ),
                repeats=1,
            )
            if log is not None:
                if len(log.statements) != 1:
                    failures.append(
                        f"sqlite: fast update issued {len(log.statements)} "
                        f"statements, expected 1: {log.statements[:3]}"
                    )
                elif not (
                    log.statements[0].startswith('UPDATE "BenchRecord" SET')
                    and 'jid IN (SELECT DISTINCT "jid" FROM "BenchRecord"'
                    in log.statements[0]
                ):
                    failures.append(
                        f"sqlite: update did not use the jid subselect: "
                        f"{log.statements[0]}"
                    )
        if changed != rows * 2:
            failures.append(
                f"{backend_name}: update changed {changed} rows, "
                f"expected {rows * 2} (every facet row of every alice record)"
            )
        with use_form(loop_form):
            loop_update_time, _count = time_best(lambda: _loop_update(viewer), repeats=1)
        if _snapshot(fast_db) != _snapshot(loop_db):
            failures.append(
                f"{backend_name}: set-oriented update diverged from the "
                f"per-record loop"
            )

        # -- bulk delete: one statement vs. per-record deletes -----------------
        with use_form(fast_form):
            if log is not None:
                log.clear()
            fast_delete_time, deleted = time_best(
                lambda: BenchRecord.objects.filter(owner="alice").delete(), repeats=1
            )
            if log is not None:
                deletes = [
                    s for s in log.statements if s.startswith("DELETE")
                ]
                if len(deletes) != 1 or len(log.statements) != 1:
                    failures.append(
                        f"sqlite: fast delete issued {len(log.statements)} "
                        f"statements, expected 1"
                    )
                elif 'jid IN (SELECT DISTINCT "jid" FROM "BenchRecord"' not in deletes[0]:
                    failures.append(
                        f"sqlite: delete did not use the jid subselect: {deletes[0]}"
                    )
        if deleted != rows * 2:
            failures.append(
                f"{backend_name}: delete removed {deleted} rows, expected {rows * 2}"
            )
        with use_form(loop_form):
            loop_delete_time, _count = time_best(lambda: _loop_delete(viewer), repeats=1)
        if _snapshot(fast_db) != _snapshot(loop_db):
            failures.append(
                f"{backend_name}: set-oriented delete diverged from the "
                f"per-record loop"
            )
        if len(_snapshot(fast_db)) != KEEPERS * 2:
            failures.append(
                f"{backend_name}: expected the {KEEPERS} bob records "
                f"({KEEPERS * 2} facet rows) to survive, found "
                f"{len(_snapshot(fast_db))} rows"
            )

        snapshots[backend_name] = _snapshot(fast_db)
        timings[backend_name] = (
            fast_update_time, loop_update_time, fast_delete_time, loop_delete_time
        )
        update_speedup = loop_update_time / fast_update_time if fast_update_time else float("inf")
        delete_speedup = loop_delete_time / fast_delete_time if fast_delete_time else float("inf")
        print(
            f"[{backend_name}] rows={rows}  "
            f"update: fast={fast_update_time * 1000:.2f}ms "
            f"loop={loop_update_time * 1000:.2f}ms ({update_speedup:.1f}x)  "
            f"delete: fast={fast_delete_time * 1000:.2f}ms "
            f"loop={loop_delete_time * 1000:.2f}ms ({delete_speedup:.1f}x)"
        )
        fast_db.close()
        loop_db.close()

    if snapshots["memory"] != snapshots["sqlite"]:
        failures.append("backend mismatch: memory and sqlite final tables differ")

    if not smoke:
        for backend_name, (fu, lu, fd, ld) in timings.items():
            if lu < fu * 5:
                failures.append(
                    f"{backend_name}: fast update only {lu / fu:.1f}x faster "
                    f"than the per-record loop (need >=5x)"
                )
            if ld < fd * 5:
                failures.append(
                    f"{backend_name}: fast delete only {ld / fd:.1f}x faster "
                    f"than the per-record loop (need >=5x)"
                )

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("ok")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="CI-sized run (no timing assertion)"
    )
    parser.add_argument("--rows", type=int, default=None, help="records to seed")
    args = parser.parse_args()
    rows = args.rows if args.rows is not None else (300 if args.smoke else 10_000)
    return run(rows, smoke=args.smoke)


if __name__ == "__main__":
    raise SystemExit(main())
