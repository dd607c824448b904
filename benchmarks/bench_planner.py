"""Cost-aware planning: ordered-index probes vs the forced full scan.

Before the ordered indexes, every range or ORDER BY query on the memory
engine evaluated the predicate against all rows and then sorted the
matches, so a selective bounded query's cost grew linearly with table
size.  With the planner, a range + ORDER BY + LIMIT on an
``ordered=True`` column becomes a bisect probe that walks the index in
order and stops at the limit.  This benchmark verifies:

* **correctness**: the indexed results equal the forced-scan results
  (``MemoryBackend(use_indexes=False)``) and SQLite's, row for row;
* **single statement**: the range/ORDER BY fetch issues exactly one
  SELECT on SQLite, and its text is byte-identical with and without
  index DDL -- planning never changes the rendered SQL;
* **plan shape**: the memory engine's chosen path is an ordered-range
  probe that serves the ORDER BY (asserted via ``last_plan``), and
  SQLite's ``EXPLAIN QUERY PLAN`` reports the index that the captured
  ``CREATE INDEX`` DDL declared;
* **speedup**: at 10k rows the indexed range/ORDER BY query runs >=5x
  faster than the forced scan on the memory engine (full run only;
  ``--smoke`` checks shape and parity at CI size).

Usage::

    python benchmarks/bench_planner.py            # full run (10k rows)
    python benchmarks/bench_planner.py --smoke    # CI-sized run

Exits non-zero on any violation, so CI can gate on it.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.bench.timing import time_best  # noqa: E402
from repro.db import (  # noqa: E402
    Column,
    ColumnType,
    Database,
    IndexSpec,
    MemoryBackend,
    SqliteBackend,
    StatementLog,
    TableSchema,
    between,
)

LIMIT = 10
REPEATS = 3


def _schema() -> TableSchema:
    return TableSchema(
        "Bench",
        (
            Column("id", ColumnType.INTEGER, primary_key=True),
            Column("score", ColumnType.INTEGER, ordered=True),
            Column("payload", ColumnType.TEXT),
        ),
        indexes=(IndexSpec(("score", "id")),),
    )


def _seed(database: Database, rows: int) -> None:
    database.create_table(_schema())
    database.insert_many(
        "Bench",
        [
            {
                # Deterministic scatter with occasional NULLs, so the probe
                # has to bisect a genuinely unsorted insert order.
                "score": None if index % 97 == 0 else (index * 7919) % rows,
                "payload": f"row{index:06d}",
            }
            for index in range(rows)
        ],
    )


def _bounded_query(database: Database, low: int, high: int):
    return (
        database.query("Bench")
        .filter(between("score", low, high))
        .ordered_by("score")
        .limited(LIMIT)
    )


def run(rows: int, smoke: bool) -> int:
    failures: List[str] = []
    low, high = rows // 2, rows // 2 + max(rows // 100, 10)

    engines = {
        "indexed": Database(MemoryBackend()),
        "scan": Database(MemoryBackend(use_indexes=False)),
        "sqlite": Database(SqliteBackend()),
        "sqlite-noidx": Database(SqliteBackend(emit_indexes=False)),
    }
    for database in engines.values():
        _seed(database, rows)

    # -- correctness: every engine returns the same bounded ordered rows ---------
    results = {
        name: [
            (row["score"], row["id"])
            for row in database.execute(_bounded_query(database, low, high))
        ]
        for name, database in engines.items()
    }
    for name, rows_out in results.items():
        if rows_out != results["indexed"]:
            failures.append(
                f"{name}: bounded range/ORDER BY diverges from indexed memory "
                f"run: {rows_out[:3]} vs {results['indexed'][:3]}"
            )
    if not results["indexed"]:
        failures.append("the bounded range matched no rows; bad seed data")

    # -- single statement, identical SQL with and without index DDL --------------
    statements = {}
    for name in ("sqlite", "sqlite-noidx"):
        database = engines[name]
        with StatementLog(database.backend) as log:
            database.execute(_bounded_query(database, low, high))
        selects = [s for s in log.statements if s.startswith("SELECT")]
        if len(selects) != 1:
            failures.append(f"{name}: expected 1 SELECT, got {len(selects)}")
        statements[name] = selects
    if statements["sqlite"] != statements["sqlite-noidx"]:
        failures.append(
            "index DDL changed the rendered SQL: "
            f"{statements['sqlite']} vs {statements['sqlite-noidx']}"
        )

    # -- plan shape: memory chose the index; SQLite's EXPLAIN agrees -------------
    memory = engines["indexed"]
    choice = memory.backend.last_plan("Bench")
    if choice is None or choice.chosen.kind != "ordered-range":
        kind = None if choice is None else choice.chosen.kind
        failures.append(f"memory: expected an ordered-range probe, got {kind}")
    elif not choice.chosen.serves_order:
        failures.append("memory: the ordered-range probe did not serve ORDER BY")

    sqlite = engines["sqlite"]
    report = sqlite.explain(_bounded_query(sqlite, low, high))
    plan_lines = report.get("sqlite_plan", [])
    ddl = report.get("index_ddl", [])
    if not any("idx_Bench_score" in line for line in plan_lines):
        failures.append(f"sqlite: EXPLAIN QUERY PLAN is not index-backed: {plan_lines}")
    if not any('"idx_Bench_score"' in statement for statement in ddl):
        failures.append(f"sqlite: missing CREATE INDEX DDL for score: {ddl}")

    # -- speedup on the memory engine ---------------------------------------------
    indexed_time, _ = time_best(
        lambda: engines["indexed"].execute(_bounded_query(engines["indexed"], low, high)),
        REPEATS,
    )
    scan_time, _ = time_best(
        lambda: engines["scan"].execute(_bounded_query(engines["scan"], low, high)),
        REPEATS,
    )
    speedup = scan_time / indexed_time if indexed_time else float("inf")
    print(
        f"[memory] rows={rows} limit={LIMIT}  "
        f"indexed={indexed_time * 1000:.2f}ms  "
        f"forced-scan={scan_time * 1000:.2f}ms  speedup={speedup:.1f}x"
    )
    if not smoke and scan_time < indexed_time * 5:
        failures.append(
            f"memory: indexed range/ORDER BY only {speedup:.1f}x faster (need >=5x)"
        )

    for database in engines.values():
        database.close()
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
    parser.add_argument("--rows", type=int, default=None, help="rows to seed")
    args = parser.parse_args()
    rows = args.rows if args.rows is not None else (300 if args.smoke else 10_000)
    return run(rows, smoke=args.smoke)


if __name__ == "__main__":
    raise SystemExit(main())
