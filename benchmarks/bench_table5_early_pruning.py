"""Table 5: the all-courses page with and without Early Pruning.

The paper shows that without Early Pruning the page that lists every course
and its instructor explodes (0.377s at 4 courses, 64s at 8, out of memory at
16), while with pruning it scales linearly up to 1024 courses.  The cause is
that each course's instructor lookup is guarded by its own label, so the
unpruned page must explore every facet combination.

The assertions check the qualitative claims: the unpruned page grows
super-linearly while the pruned page grows gently, the pruned page is much
faster at the same size, and both render identical output.  Run
``python benchmarks/bench_table5_early_pruning.py`` for the sweep (the
unpruned column stops at 8-10 courses, like the paper's "--" entries).
"""

from __future__ import annotations

from repro.apps.course import build_course_app, seed_courses, setup_courses
from repro.bench.report import format_table
from repro.bench.timing import time_request
from repro.web import TestClient

BENCH_SIZE_PRUNED = 64
BENCH_SIZE_UNPRUNED = 6


def _course_clients(courses, early_pruning):
    form = setup_courses()
    created = seed_courses(form, courses=courses, students_per_course=2)
    app = build_course_app(form, early_pruning=early_pruning)
    client = TestClient(app)
    viewer = created["students"][0]
    client.force_login(viewer.jid, viewer.name)
    return client


def test_table5_all_courses_with_pruning(benchmark):
    client = _course_clients(BENCH_SIZE_PRUNED, early_pruning=True)
    assert benchmark(lambda: client.get("/courses")).ok


def test_table5_all_courses_without_pruning(benchmark):
    client = _course_clients(BENCH_SIZE_UNPRUNED, early_pruning=False)
    assert benchmark(lambda: client.get("/courses")).ok


def test_table5_pruning_is_dramatically_faster_at_the_same_size():
    pruned = _course_clients(8, early_pruning=True)
    unpruned = _course_clients(8, early_pruning=False)
    pruned_time, _ = time_request(pruned, "/courses", repeats=3)
    unpruned_time, _ = time_request(unpruned, "/courses", repeats=1)
    assert unpruned_time > pruned_time * 2


def test_table5_unpruned_blowup_is_superlinear():
    small = _course_clients(4, early_pruning=False)
    large = _course_clients(8, early_pruning=False)
    small_time, _ = time_request(small, "/courses", repeats=1)
    large_time, _ = time_request(large, "/courses", repeats=1)
    # Doubling the courses should more than double the unpruned time
    # (each extra course doubles the number of facet combinations).
    assert large_time > small_time * 2


def test_table5_pruning_does_not_change_the_rendered_page():
    form = setup_courses()
    created = seed_courses(form, courses=5, students_per_course=2)
    viewer = created["students"][0]
    bodies = []
    for early_pruning in (True, False):
        client = TestClient(build_course_app(form, early_pruning=early_pruning))
        client.force_login(viewer.jid, viewer.name)
        bodies.append(client.get("/courses").body)
    assert bodies[0] == bodies[1]


def main(pruned_sizes=(4, 8, 16, 32, 64, 128, 256), unpruned_limit=10, repeats=3) -> None:
    rows = []
    for size in pruned_sizes:
        pruned_time = time_request(
            _course_clients(size, early_pruning=True), "/courses", repeats
        )[0]
        if size <= unpruned_limit:
            unpruned_time = time_request(
                _course_clients(size, early_pruning=False), "/courses", repeats=1
            )[0]
        else:
            unpruned_time = None  # the paper prints "–" here (OOM / timeout)
        rows.append([size, unpruned_time, pruned_time])
    print(
        format_table(
            ["# courses", "w/o pruning (s)", "w/ pruning (s)"],
            rows,
            title="Table 5: showing all courses, with and without Early Pruning",
        )
    )


if __name__ == "__main__":
    main()
