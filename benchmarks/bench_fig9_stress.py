"""Figure 9: stress tests for the three case studies.

* Figure 9(a): conference manager -- time to view all papers / all users as
  the number of papers / users grows, Jacqueline vs Django.
* Figure 9(b): health record manager -- time to view all records as the
  number of users grows.
* Figure 9(c): course manager -- time to view all courses as the number of
  courses grows.

The paper's curves grow linearly for both stacks with Jacqueline at most
1.75x slower.  The pytest-benchmark entries measure one representative size
per page; run ``python benchmarks/bench_fig9_stress.py`` for the full sweep
(the series the figure plots).
"""

from __future__ import annotations

from repro.apps.conf import (
    build_baseline_conf_app,
    build_conf_app,
    seed_baseline_conference,
    seed_conference,
    setup_baseline_conf,
    setup_conf,
)
from repro.apps.course import build_course_app, seed_courses, setup_courses
from repro.apps.health import build_health_app, seed_health, setup_health
from repro.bench.report import format_series
from repro.bench.timing import time_request
from repro.web import TestClient

BENCH_SIZE = 64
SWEEP_SIZES = (8, 16, 32, 64, 128, 256)


def _jacqueline_conf_client(papers):
    form = setup_conf()
    created = seed_conference(form, papers=papers, users=papers, pc_members=4)
    client = TestClient(build_conf_app(form))
    viewer = created["pc"][0]
    client.force_login(viewer.jid, viewer.name)
    return client


def _django_conf_client(papers):
    db = setup_baseline_conf()
    created = seed_baseline_conference(db, papers=papers, users=papers, pc_members=4)
    client = TestClient(build_baseline_conf_app(db))
    viewer = created["pc"][0]
    client.force_login(viewer.pk, viewer.name)
    return client


def _health_client(patients):
    form = setup_health()
    created = seed_health(form, patients=patients, doctors=4, insurers=2)
    client = TestClient(build_health_app(form))
    viewer = created["doctors"][0]
    client.force_login(viewer.jid, viewer.name)
    return client


def _course_client(courses):
    form = setup_courses()
    created = seed_courses(form, courses=courses, students_per_course=2)
    client = TestClient(build_course_app(form))
    viewer = created["students"][0]
    client.force_login(viewer.jid, viewer.name)
    return client


def test_fig9a_conference_all_papers_jacqueline(benchmark):
    client = _jacqueline_conf_client(BENCH_SIZE)
    response = benchmark(lambda: client.get("/papers"))
    assert response.ok


def test_fig9a_conference_all_papers_django(benchmark):
    client = _django_conf_client(BENCH_SIZE)
    response = benchmark(lambda: client.get("/papers"))
    assert response.ok


def test_fig9a_conference_all_users_jacqueline(benchmark):
    client = _jacqueline_conf_client(BENCH_SIZE)
    response = benchmark(lambda: client.get("/users"))
    assert response.ok


def test_fig9a_conference_all_users_django(benchmark):
    client = _django_conf_client(BENCH_SIZE)
    response = benchmark(lambda: client.get("/users"))
    assert response.ok


def test_fig9b_health_all_records(benchmark):
    client = _health_client(BENCH_SIZE)
    response = benchmark(lambda: client.get("/records"))
    assert response.ok


def test_fig9c_course_all_courses(benchmark):
    client = _course_client(BENCH_SIZE)
    response = benchmark(lambda: client.get("/courses"))
    assert response.ok


def main(sizes=SWEEP_SIZES, repeats=5) -> None:
    series = {
        "Fig 9a view-all-papers (Jacqueline)": {},
        "Fig 9a view-all-papers (Django)": {},
        "Fig 9a view-all-users (Jacqueline)": {},
        "Fig 9a view-all-users (Django)": {},
        "Fig 9b view-all-records (Jacqueline)": {},
        "Fig 9c view-all-courses (Jacqueline)": {},
    }
    for size in sizes:
        jacq = _jacqueline_conf_client(size)
        django = _django_conf_client(size)
        series["Fig 9a view-all-papers (Jacqueline)"][size] = time_request(jacq, "/papers", repeats)[0]
        series["Fig 9a view-all-papers (Django)"][size] = time_request(django, "/papers", repeats)[0]
        series["Fig 9a view-all-users (Jacqueline)"][size] = time_request(jacq, "/users", repeats)[0]
        series["Fig 9a view-all-users (Django)"][size] = time_request(django, "/users", repeats)[0]
        series["Fig 9b view-all-records (Jacqueline)"][size] = time_request(
            _health_client(size), "/records", repeats
        )[0]
        series["Fig 9c view-all-courses (Jacqueline)"][size] = time_request(
            _course_client(size), "/courses", repeats
        )[0]
    for name, points in series.items():
        print(format_series(name, points))
        print()


if __name__ == "__main__":
    main()
