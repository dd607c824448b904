"""Policy pushdown: compiled Early Pruning vs the Python path.

On a policied model whose one policy group compiles to an inline
predicate (equality on the viewer, own-row reads), a viewer-context
``fetch()``/``count()`` renders that predicate into the statement
itself::

    SELECT ... FROM "BenchDoc"
    WHERE (jvars = ? OR ((jvars = (? || jid || ?) AND owner_id IS ?)
                      OR (jvars = (? || jid || ?) AND (NOT owner_id IS ?))))

The Python path (Early Pruning label resolution over the fetched secret
facets) remains the fallback -- and the differential oracle this
benchmark compares against.

Per backend (memory engine and SQLite) this verifies:

* **single statement**: the warmed pushed fetch and count each issue
  exactly one statement, and ``explain()`` reports the executed SQL
  string (asserted on captured SQL against SQLite);
* **correctness**: the pushed results -- visible titles and the count --
  match the Python oracle (``form.policy_pushdown_enabled = False``) bit
  for bit;
* **speedup**: at 10k records the pushed ``count()`` is >=5x faster than
  Python pruning (full run only; ``--smoke`` checks shape and parity at
  CI size);
* **the conference papers**: ``Paper.objects.all().fetch()`` -- two
  policy groups, the phase global, the conflict lookup and the author
  policy's read of the column it guards -- is one statement for a PC
  member, an author and the chair, and keeps the Python path's rows.

Usage::

    python benchmarks/bench_policy_pushdown.py                  # full (10k rows)
    python benchmarks/bench_policy_pushdown.py --smoke          # CI-sized run
    python benchmarks/bench_policy_pushdown.py --fuzz-iterations=500
                               # run the differential fuzz harness instead

Exits non-zero on any violation, so CI can gate on it.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from typing import List, Tuple

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")
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
from repro.form import (  # noqa: E402
    CharField,
    FORM,
    ForeignKey,
    IntegerField,
    JModel,
    jacqueline,
    label_for,
    use_form,
    viewer_context,
)


class BenchOwner(JModel):
    name = CharField(max_length=64)


class BenchDoc(JModel):
    """Two facet rows per record: a public and a secret title."""

    owner = ForeignKey(BenchOwner)
    title = CharField(max_length=64)
    score = IntegerField(default=0)

    @staticmethod
    def jacqueline_get_public_title(doc):
        return "[secret]"

    @staticmethod
    @label_for("title")
    @jacqueline
    def jacqueline_restrict_title(doc, ctxt):
        return ctxt is not None and doc.owner_id == ctxt.jid


def _build_form(backend_factory, rows: int) -> Tuple[FORM, Database, object, object]:
    database = Database(backend_factory())
    form = FORM(database, cache_config=CacheConfig.disabled())
    form.register_all([BenchOwner, BenchDoc])
    with use_form(form):
        alice = BenchOwner.objects.create(name="alice")
        bob = BenchOwner.objects.create(name="bob")
        BenchDoc.objects.bulk_create(
            [
                BenchDoc(
                    owner=alice if index % 2 else bob,
                    title=f"title{index:06d}",
                    score=index % 10,
                )
                for index in range(rows)
            ]
        )
    return form, database, alice, bob


def check_conference(papers: int) -> List[str]:
    """The conference ``/papers`` read, pushed for three viewer roles."""
    from repro.apps.conf import ConferencePhase, Paper, seed_conference, setup_conf

    failures: List[str] = []
    for backend_name, backend_factory in (
        ("memory", MemoryBackend),
        ("sqlite", SqliteBackend),
    ):
        before = len(failures)
        database = Database(backend_factory())
        form = setup_conf(database, cache_config=CacheConfig.disabled())
        created = seed_conference(form, papers=papers)
        viewers = {
            "pc": created["pc"][0],
            "author": created["users"][1],
            "chair": created["chair"][0],
        }
        with use_form(form):
            for role, viewer in viewers.items():
                with viewer_context(viewer):
                    rows = lambda: sorted(  # noqa: E731
                        (paper.jid, paper.title, paper.author_id, paper.accepted)
                        for paper in Paper.objects.all().fetch()
                    )
                    rows()  # warm
                    with database.observe_statements() as log:
                        pushed = rows()
                    form.policy_pushdown_enabled = False
                    oracle = rows()
                    form.policy_pushdown_enabled = True
                if len(log.statements) != 1:
                    failures.append(
                        f"{backend_name}: conference papers for the {role} issued "
                        f"{len(log.statements)} statements, expected 1"
                    )
                if pushed != oracle:
                    failures.append(
                        f"{backend_name}: conference papers for the {role} diverged "
                        f"from the Python oracle ({len(pushed)} vs {len(oracle)} rows)"
                    )
        if len(failures) == before:
            print(f"[{backend_name}] conference papers={papers}: one statement per viewer")
        ConferencePhase.reset()
        database.close()
    return failures


def run(rows: int, smoke: bool) -> int:
    failures: List[str] = check_conference(16 if smoke else 256)
    timings = {}

    for backend_name, backend_factory in (
        ("memory", MemoryBackend),
        ("sqlite", SqliteBackend),
    ):
        form, database, alice, _bob = _build_form(backend_factory, rows)
        log = StatementLog(database.backend) if backend_name == "sqlite" else None

        # -- pushdown: the inline predicate --------------------------------
        with use_form(form):
            with viewer_context(alice):
                BenchDoc.objects.all().fetch()  # warm the branch-key probe
                fetch_report = BenchDoc.objects.all().explain()
                count_report = BenchDoc.objects.all().explain("count")
                if log is not None:
                    log.clear()
                pushed_fetch_time, pushed_docs = time_best(
                    lambda: BenchDoc.objects.all().fetch(), repeats=1
                )
                if log is not None:
                    if len(log.statements) != 1:
                        failures.append(
                            f"sqlite: pushed fetch issued "
                            f"{len(log.statements)} statements, expected 1"
                        )
                    elif log.statements != [fetch_report["sql"]]:
                        failures.append(
                            "sqlite: explain() SQL differs from the executed "
                            f"fetch: {fetch_report['sql']!r} vs "
                            f"{log.statements!r}"
                        )
                    log.clear()
                pushed_count_time, pushed_count = time_best(
                    lambda: BenchDoc.objects.all().count()
                )
                if log is not None:
                    statements = sorted(set(log.statements))
                    if len(statements) != 1:
                        failures.append(
                            f"sqlite: pushed count issued "
                            f"{len(statements)} distinct statements, expected 1"
                        )
                    elif statements != [count_report["sql"]]:
                        failures.append(
                            "sqlite: explain() SQL differs from the executed "
                            f"count: {count_report['sql']!r} vs {statements!r}"
                        )
                if fetch_report.get("mode") != "policy-pushdown":
                    failures.append(
                        f"{backend_name}: fetch explain mode is "
                        f"{fetch_report.get('mode')!r}, expected 'policy-pushdown'"
                    )

            # -- the Python oracle ------------------------------------------
            form.policy_pushdown_enabled = False
            with viewer_context(alice):
                oracle_fetch_time, oracle_docs = time_best(
                    lambda: BenchDoc.objects.all().fetch(), repeats=1
                )
                oracle_count_time, oracle_count = time_best(
                    lambda: BenchDoc.objects.all().count()
                )
            form.policy_pushdown_enabled = True

        oracle_titles = sorted(doc.title for doc in oracle_docs)
        titles = sorted(doc.title for doc in pushed_docs)
        if titles != oracle_titles:
            failures.append(
                f"{backend_name}: pushed fetch diverged from the Python "
                f"oracle ({len(titles)} vs {len(oracle_titles)} rows)"
            )
        if pushed_count != oracle_count:
            failures.append(
                f"{backend_name}: pushed count {pushed_count} != "
                f"oracle count {oracle_count}"
            )

        timings[backend_name] = (pushed_count_time, oracle_count_time)
        pushed_speedup = (
            oracle_count_time / pushed_count_time
            if pushed_count_time
            else float("inf")
        )
        fetch_speedup = (
            oracle_fetch_time / pushed_fetch_time
            if pushed_fetch_time
            else float("inf")
        )
        print(
            f"[{backend_name}] rows={rows}  count: "
            f"pushed={pushed_count_time * 1000:.2f}ms "
            f"python={oracle_count_time * 1000:.2f}ms "
            f"({pushed_speedup:.1f}x)  fetch: "
            f"pushed={pushed_fetch_time * 1000:.2f}ms "
            f"python={oracle_fetch_time * 1000:.2f}ms ({fetch_speedup:.1f}x)"
        )
        database.close()

    if not smoke:
        for backend_name, (pushed, oracle) in timings.items():
            if oracle < pushed * 5:
                failures.append(
                    f"{backend_name}: pushed count only "
                    f"{oracle / pushed:.1f}x faster than Python pruning "
                    f"(need >=5x)"
                )

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("ok")
    return 1 if failures else 0


def run_fuzz(iterations: int) -> int:
    """Delegate to the differential fuzz harness at the given depth."""
    env = dict(os.environ)
    env["FUZZ_ITERATIONS"] = str(iterations)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.call(
        [
            sys.executable,
            "-m",
            "pytest",
            os.path.join("tests", "fuzz", "test_policy_parity.py"),
            "-q",
        ],
        env=env,
        cwd=_ROOT,
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="CI-sized run (no timing assertion)"
    )
    parser.add_argument("--rows", type=int, default=None, help="records to seed")
    parser.add_argument(
        "--fuzz-iterations",
        type=int,
        default=None,
        help="run the differential fuzz harness at this depth instead",
    )
    args = parser.parse_args()
    if args.fuzz_iterations is not None:
        return run_fuzz(args.fuzz_iterations)
    rows = args.rows if args.rows is not None else (300 if args.smoke else 10_000)
    return run(rows, smoke=args.smoke)


if __name__ == "__main__":
    raise SystemExit(main())
