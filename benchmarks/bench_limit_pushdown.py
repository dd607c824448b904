"""Bounded faceted queries: jid-subselect pushdown vs. full-scan truncation.

Before the pushdown, ``limited(n)`` fetched the *entire* matching row set
and truncated per jid in Python, so a bounded query's cost grew linearly
with table size.  With the pushdown it compiles to one SQL statement::

    SELECT * FROM "T" WHERE jid IN
        (SELECT DISTINCT "jid" FROM "T" WHERE ... LIMIT n) ...

and stays flat as the table grows.  This benchmark verifies, per backend:

* **single statement**: the bounded fetch issues exactly one SELECT, and it
  carries the jid subselect (asserted on captured SQL against SQLite);
* **correctness**: the bounded result equals the first *n* records of the
  old full-scan-then-truncate path, and both backends return identical
  titles/jids;
* **speedup**: on a 10k-record faceted table (20k facet rows) the bounded
  query runs >=5x faster than the full-scan path (full run only; ``--smoke``
  checks shape and parity at CI size).

Usage::

    python benchmarks/bench_limit_pushdown.py            # full run (10k rows)
    python benchmarks/bench_limit_pushdown.py --smoke    # CI-sized run

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
from repro.cache import CacheConfig  # noqa: E402
from repro.db import (  # noqa: E402
    Database,
    MemoryBackend,
    SqliteBackend,
    StatementLog,
)
from repro.db.query import limit_by_key  # noqa: E402
from repro.form import (  # noqa: E402
    CharField,
    FORM,
    JModel,
    jacqueline,
    label_for,
    use_form,
    viewer_context,
)

LIMIT = 5
REPEATS = 3


class BenchRecord(JModel):
    """Two facet rows per record: a public and a secret title."""

    title = CharField(max_length=64)
    owner = CharField(max_length=64)

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


def _build_form(database: Database, rows: int) -> FORM:
    form = FORM(database, cache_config=CacheConfig.disabled())
    form.register_all([BenchRecord])
    with use_form(form):
        BenchRecord.objects.bulk_create(
            [
                BenchRecord(title=f"title{index:06d}", owner="alice")
                for index in range(rows)
            ]
        )
    return form


def _full_scan_titles(viewer: Viewer) -> List[str]:
    """The pre-pushdown path: fetch every matching record, truncate in Python."""
    with viewer_context(viewer):
        everything = BenchRecord.objects.filter(owner="alice").fetch()
    bounded = limit_by_key(everything, lambda record: record.jid, LIMIT)
    return [record.title for record in bounded]


def _pushdown_titles(viewer: Viewer) -> List[str]:
    with viewer_context(viewer):
        bounded = BenchRecord.objects.filter(owner="alice").limited(LIMIT).fetch()
    return [record.title for record in bounded]


def run(rows: int, smoke: bool) -> int:
    failures: List[str] = []
    viewer = Viewer("alice")
    results = {}
    timings = {}

    for backend_name, backend in (
        ("memory", MemoryBackend()),
        ("sqlite", SqliteBackend()),
    ):
        database = Database(backend)
        log = StatementLog(backend) if backend_name == "sqlite" else None
        form = _build_form(database, rows)
        with use_form(form):
            if log is not None:
                log.clear()
            pushdown_time, pushdown_titles = time_best(lambda: _pushdown_titles(viewer), REPEATS)
            if log is not None:
                selects = [
                    statement
                    for statement in log.statements
                    if statement.startswith("SELECT * ")
                ]
                per_fetch = len(selects) / REPEATS
                if per_fetch != 1:
                    failures.append(
                        f"sqlite: expected 1 SELECT per bounded fetch, got {per_fetch}"
                    )
                subselect = 'jid IN (SELECT DISTINCT "jid" FROM "BenchRecord"'
                if not all(subselect in statement for statement in selects):
                    failures.append(
                        f"sqlite: bounded fetch did not use the jid subselect: {selects[:1]}"
                    )
            scan_time, scan_titles = time_best(lambda: _full_scan_titles(viewer), REPEATS)

        if pushdown_titles != scan_titles:
            failures.append(
                f"{backend_name}: pushdown result {pushdown_titles} != "
                f"full-scan result {scan_titles}"
            )
        results[backend_name] = pushdown_titles
        timings[backend_name] = (pushdown_time, scan_time)
        speedup = scan_time / pushdown_time if pushdown_time else float("inf")
        print(
            f"[{backend_name}] rows={rows} limit={LIMIT}  "
            f"pushdown={pushdown_time * 1000:.2f}ms  "
            f"full-scan={scan_time * 1000:.2f}ms  speedup={speedup:.1f}x"
        )
        database.close()

    if results["memory"] != results["sqlite"]:
        failures.append(
            f"backend mismatch: memory={results['memory']} sqlite={results['sqlite']}"
        )
    if len(results["memory"]) != LIMIT:
        failures.append(
            f"expected {LIMIT} records, got {len(results['memory'])}"
        )

    if not smoke:
        for backend_name, (pushdown_time, scan_time) in timings.items():
            if scan_time < pushdown_time * 5:
                failures.append(
                    f"{backend_name}: pushdown only "
                    f"{scan_time / pushdown_time:.1f}x faster (need >=5x)"
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
