"""Aggregates under facets: jvars-partition pushdown vs. fetch-and-reduce.

Before the pushdown, ``count()``/``exists()`` fetched *every* matching
facet row, unmarshalled it and reduced in Python, so an aggregate's cost
grew linearly with the result it never needed.  With the pushdown they
compile to one grouped SQL statement::

    SELECT "jvars", COUNT(*) FROM "T" WHERE ... GROUP BY "jvars"

whose per-partition values merge into per-world results.  This benchmark
verifies, per backend:

* **single statement**: a ``count()`` issues exactly one SELECT, the
  grouped jvars form, and fetches no data rows (asserted on captured SQL
  against SQLite);
* **correctness**: pushdown ``count()``/``sum()`` equal the old
  fetch-and-reduce values, both backends agree, and on a small policied
  table the *faceted* count is structurally identical to
  ``facet_map(len, fetch())``;
* **speedup**: on a 10k-record table ``count()`` runs >=5x faster than the
  fetch-and-reduce path (full run only; ``--smoke`` checks shape and
  parity at CI size).

Usage::

    python benchmarks/bench_aggregate_pushdown.py            # full run (10k rows)
    python benchmarks/bench_aggregate_pushdown.py --smoke    # CI-sized run

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
from repro.core.facets import facet_map  # noqa: E402
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

REPEATS = 3


class BenchPlain(JModel):
    """One facet row per record (no policies): the aggregate fast path."""

    title = CharField(max_length=64)
    owner = CharField(max_length=64)
    score = IntegerField()


class BenchSecret(JModel):
    """Two facet rows per record: used for the faceted-merge parity check."""

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
    form.register_all([BenchPlain, BenchSecret])
    with use_form(form):
        BenchPlain.objects.bulk_create(
            [
                BenchPlain(title=f"title{index:06d}", owner="alice", score=index % 97)
                for index in range(rows)
            ]
        )
        for index in range(8):
            BenchSecret.objects.create(title=f"secret{index}", owner="alice")
    return form


def _fetch_and_count(viewer: Viewer) -> int:
    """The pre-pushdown path: fetch every matching row, reduce in Python."""
    with viewer_context(viewer):
        return len(BenchPlain.objects.all().fetch())


def _pushdown_count(viewer: Viewer) -> int:
    with viewer_context(viewer):
        return BenchPlain.objects.all().count()


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
            pushdown_time, pushdown_count = time_best(lambda: _pushdown_count(viewer), REPEATS)
            if log is not None:
                per_call = len(log.statements) / REPEATS
                if per_call != 1:
                    failures.append(
                        f"sqlite: expected 1 statement per count(), got {per_call}"
                    )
                grouped = 'SELECT "jvars" AS "jvars", COUNT(*) AS "COUNT(*)"'
                if not all(s.startswith(grouped) for s in log.statements):
                    failures.append(
                        f"sqlite: count() did not use the grouped jvars plan: "
                        f"{log.statements[:1]}"
                    )
            scan_time, scan_count = time_best(lambda: _fetch_and_count(viewer), REPEATS)

            # Value checks beyond the timed count: filtered count/sum/exists
            # against fetch-and-reduce.
            with viewer_context(viewer):
                queryset = BenchPlain.objects.filter(owner="alice")
                if queryset.count() != len(queryset.fetch()):
                    failures.append(f"{backend_name}: filtered count mismatch")
                pushdown_sum = queryset.sum("score")
                scan_sum = sum(r.score for r in queryset.fetch())
                if pushdown_sum != scan_sum:
                    failures.append(
                        f"{backend_name}: sum() {pushdown_sum} != scan {scan_sum}"
                    )
                if queryset.exists() is not True:
                    failures.append(f"{backend_name}: exists() returned False")

            # Faceted-merge parity on the policied table (small on purpose:
            # the old path builds the full faceted collection).
            secret_queryset = BenchSecret.objects.filter(title="secret0")
            faceted = secret_queryset.count()
            legacy = facet_map(len, secret_queryset.fetch())
            if faceted != legacy:
                failures.append(
                    f"{backend_name}: faceted count {faceted!r} != legacy {legacy!r}"
                )

        if pushdown_count != scan_count:
            failures.append(
                f"{backend_name}: pushdown count {pushdown_count} != "
                f"full-scan count {scan_count}"
            )
        results[backend_name] = pushdown_count
        timings[backend_name] = (pushdown_time, scan_time)
        speedup = scan_time / pushdown_time if pushdown_time else float("inf")
        print(
            f"[{backend_name}] rows={rows}  "
            f"pushdown={pushdown_time * 1000:.2f}ms  "
            f"fetch-and-reduce={scan_time * 1000:.2f}ms  speedup={speedup:.1f}x"
        )
        database.close()

    if results["memory"] != results["sqlite"]:
        failures.append(
            f"backend mismatch: memory={results['memory']} sqlite={results['sqlite']}"
        )
    if results["memory"] != rows:
        failures.append(f"expected count {rows}, got {results['memory']}")

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
