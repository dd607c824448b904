"""Concurrent load: N worker threads of mixed read/write traffic.

The paper's stress tests (FunkLoad, Section 5) hammer the conference
manager with many simultaneous clients; this benchmark reproduces that
shape against the WSGI serving layer without sockets: every worker thread
drives its own :class:`~repro.web.testclient.WsgiClient` through the full
per-request path (environ parsing, session cookie, routing, FORM, policy
resolution, template rendering).

Per backend it reports throughput and -- more importantly -- verifies
integrity under load:

* **zero cross-viewer leaks**: a logged-in author's ``/users`` page must
  show their own secret email and never any other user's (the ``email``
  policy of :mod:`repro.apps.conf.models`);
* **no stale reads**: a ``/papers`` page must list every title whose
  ``POST /submit`` returned before the page was requested, the worker's
  own latest one included (titles carry no policy, so every viewer sees
  them);
* **unique jid allocation**: every record's facet rows agree, no jid is
  shared by two logical records, and no record lost rows;
* **get_or_create atomicity**: all threads racing the same key observe one
  record.

Usage::

    python benchmarks/bench_concurrent_load.py            # full run
    python benchmarks/bench_concurrent_load.py --smoke    # CI-sized run

Exits non-zero on any violation, so CI can gate on it.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import threading
import time
import urllib.request
from typing import Any, Dict, List, Optional

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.apps.conf.models import ConfUser, Paper  # noqa: E402
from repro.apps.conf.views import build_conf_app, setup_conf  # noqa: E402
from repro.db.engine import Database  # noqa: E402
from repro.form import use_form  # noqa: E402
from repro.web import BackgroundServer, WsgiClient  # noqa: E402

SHARED_KEY_NAME = "shared-singleton"


def _secret_email(index: int) -> str:
    return f"secret-{index}@load.test"


def _seed(form, workers: int, papers_per_author: int) -> None:
    """Chair + PC + one author per worker, each with a distinctive secret."""
    with use_form(form):
        ConfUser.objects.create(
            name="chair", affiliation="CMU", email="chair@load.test", level="chair"
        )
        ConfUser.objects.bulk_create(
            [
                ConfUser(
                    name=f"pc{i}", affiliation="PC", email=f"pc{i}@load.test", level="pc"
                )
                for i in range(2)
            ]
        )
        authors = ConfUser.objects.bulk_create(
            [
                ConfUser(
                    name=f"author{i}",
                    affiliation=f"Institute {i}",
                    email=_secret_email(i),
                    level="normal",
                )
                for i in range(workers)
            ]
        )
        Paper.objects.bulk_create(
            [
                Paper(title=f"Seed paper {i}-{p}", author=author)
                for i, author in enumerate(authors)
                for p in range(papers_per_author)
            ]
        )


class WorkerResult:
    def __init__(self) -> None:
        self.requests = 0
        self.submitted = 0
        self.violations: List[str] = []


class SubmitLog:
    """The titles whose ``POST /submit`` has returned, shared by workers."""

    def __init__(self) -> None:
        self._titles: List[str] = []
        self._lock = threading.Lock()

    def add(self, title: str) -> None:
        with self._lock:
            self._titles.append(title)

    def snapshot(self) -> List[str]:
        with self._lock:
            return list(self._titles)


def _worker(index: int, app, form, workers: int, iterations: int,
            result: WorkerResult, barrier: threading.Barrier,
            submit_log: SubmitLog) -> None:
    client = WsgiClient(app)
    own_secret = _secret_email(index)
    other_secrets = [_secret_email(j) for j in range(workers) if j != index]
    barrier.wait()
    response = client.post("/login", username=f"author{index}")
    result.requests += 1
    if response.status not in (200, 302):
        result.violations.append(f"worker {index}: login failed ({response.status})")
        return
    for iteration in range(iterations):
        page = client.get("/users")
        result.requests += 1
        if page.status != 200:
            result.violations.append(f"worker {index}: /users -> {page.status}")
            continue
        if own_secret not in page.body:
            result.violations.append(
                f"worker {index}: own email missing from /users (iteration {iteration})"
            )
        for secret in other_secrets:
            if secret in page.body:
                result.violations.append(
                    f"worker {index}: LEAK of {secret} on /users (iteration {iteration})"
                )
        # Every submit that returned before this request is sent must show.
        expected = submit_log.snapshot()
        papers = client.get("/papers")
        result.requests += 1
        if papers.status != 200:
            result.violations.append(f"worker {index}: /papers -> {papers.status}")
        else:
            missing = [title for title in expected if f"<li>{title} " not in papers.body]
            if missing:
                result.violations.append(
                    f"worker {index}: STALE /papers lacks {len(missing)} submitted "
                    f"title(s), e.g. {missing[0]!r} (iteration {iteration})"
                )
        if iteration % 3 == 0:
            title = f"load-paper w{index}-{iteration}"
            posted = client.post("/submit", title=title)
            result.requests += 1
            if posted.status in (200, 302):
                result.submitted += 1
                submit_log.add(title)
            else:
                result.violations.append(
                    f"worker {index}: /submit -> {posted.status}"
                )
        if iteration % 5 == 0:
            # Race every thread on one get_or_create key through the ORM on
            # this worker thread (no request context): exactly one record
            # may ever exist.
            with use_form(form):
                ConfUser.objects.get_or_create(
                    name=SHARED_KEY_NAME,
                    defaults={"affiliation": "-", "email": "shared@load.test"},
                )


def _check_integrity(form, workers: int, papers_per_author: int,
                     submitted: int) -> List[str]:
    """Post-run invariants over the raw augmented tables."""
    problems: List[str] = []
    with use_form(form):
        user_rows = form.database.find("ConfUser")
        paper_rows = form.database.find("Paper")

    by_jid: Dict[int, set] = {}
    for row in user_rows:
        by_jid.setdefault(row["jid"], set()).add(row["name"])
    for jid, names in by_jid.items():
        if len(names) != 1:
            problems.append(f"ConfUser jid {jid} spans records {sorted(names)}")
    shared = [jid for jid, names in by_jid.items() if SHARED_KEY_NAME in names]
    if len(shared) != 1:
        problems.append(
            f"get_or_create produced {len(shared)} records for {SHARED_KEY_NAME!r}"
        )

    papers_by_jid: Dict[int, set] = {}
    for row in paper_rows:
        papers_by_jid.setdefault(row["jid"], set()).add(row["title"])
    for jid, titles in papers_by_jid.items():
        if len(titles) != 1:
            problems.append(f"Paper jid {jid} spans records {sorted(titles)}")
    expected_papers = workers * papers_per_author + submitted
    if len(papers_by_jid) != expected_papers:
        problems.append(
            f"expected {expected_papers} papers, found {len(papers_by_jid)} "
            "(lost or duplicated records under load)"
        )
    return problems


def run_config(backend: str, workers: int, iterations: int,
               papers_per_author: int, tmpdir: str) -> Dict[str, Any]:
    if backend == "sqlite":
        database = Database.sqlite(os.path.join(tmpdir, "load.db"))
    else:
        database = Database()
    form = setup_conf(database)
    _seed(form, workers, papers_per_author)
    app = build_conf_app(form)

    results = [WorkerResult() for _ in range(workers)]
    barrier = threading.Barrier(workers)
    submit_log = SubmitLog()
    threads = [
        threading.Thread(
            target=_worker,
            args=(i, app, form, workers, iterations, results[i], barrier, submit_log),
            name=f"load-worker-{i}",
        )
        for i in range(workers)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started

    violations = [v for result in results for v in result.violations]
    # Count the posts that actually succeeded, not a schedule-derived guess:
    # a transient failure elsewhere in a worker's loop must not masquerade
    # as "lost records" here.
    submitted = sum(result.submitted for result in results)
    violations.extend(_check_integrity(form, workers, papers_per_author, submitted))
    requests = sum(result.requests for result in results)
    reads = "wal-reads" if form.database.backend.supports_concurrent_reads else "locked"
    form.database.close()
    return {
        "backend": backend,
        "reads": reads,
        "requests": requests,
        "elapsed": elapsed,
        "rps": requests / elapsed if elapsed else float("inf"),
        "violations": violations,
    }


def run_http_check(workers: int) -> List[str]:
    """A brief real-socket pass through the bundled threaded server."""
    problems: List[str] = []
    form = setup_conf()
    _seed(form, workers, papers_per_author=1)
    app = build_conf_app(form)
    with BackgroundServer(app) as server:
        def fetch(index: int) -> None:
            try:
                for _request in range(3):
                    with urllib.request.urlopen(server.url + "/papers", timeout=10) as rsp:
                        if rsp.status != 200:
                            problems.append(f"HTTP /papers -> {rsp.status}")
            except Exception as exc:
                problems.append(f"HTTP worker {index}: {exc!r}")
        threads = [threading.Thread(target=fetch, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--threads", type=int, default=8)
    parser.add_argument("--iterations", type=int, default=24,
                        help="requests loop length per worker")
    parser.add_argument("--papers-per-author", type=int, default=2)
    parser.add_argument("--backends", default="memory,sqlite",
                        help="comma-separated: memory,sqlite")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run (8 threads, 6 iterations)")
    parser.add_argument("--no-http", action="store_true",
                        help="skip the real-socket threaded-server check")
    args = parser.parse_args(argv)
    if args.smoke:
        args.threads = max(args.threads, 8)
        args.iterations = min(args.iterations, 6)

    backends = [name.strip() for name in args.backends.split(",") if name.strip()]
    print(
        f"concurrent load: {args.threads} threads x {args.iterations} iterations, "
        f"backends={backends}"
    )
    failures = 0
    with tempfile.TemporaryDirectory(prefix="repro-load-") as tmpdir:
        for backend in backends:
            outcome = run_config(
                backend, args.threads, args.iterations, args.papers_per_author, tmpdir,
            )
            status = "ok" if not outcome["violations"] else "FAIL"
            print(
                f"  {outcome['backend']:>7} ({outcome['reads']}): "
                f"{outcome['requests']:5d} requests in {outcome['elapsed']:6.2f}s "
                f"({outcome['rps']:8.1f} req/s)  [{status}]"
            )
            for violation in outcome["violations"][:10]:
                print(f"      - {violation}")
            if outcome["violations"]:
                failures += 1
    if not args.no_http:
        problems = run_http_check(min(args.threads, 4))
        print(f"  threaded HTTP server: {'ok' if not problems else 'FAIL'}")
        for problem in problems[:10]:
            print(f"      - {problem}")
        if problems:
            failures += 1
    if failures:
        print(f"{failures} configuration(s) FAILED")
        return 1
    print(
        "all configurations passed: no leaks, no stale reads, no duplicate jids, "
        "no lost records"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
