"""Statement counts of the demo pages stay constant in the number of records.

A per-record lookup made on any member of a viewer-context result list runs
once for the whole list (batched loading, ``repro.form.manager``).  These
tests capture every statement a warmed page issues with
``Database.observe_statements()`` -- caches off, so every statement really
runs -- and pin the counts on both backends:

* conf ``/papers`` issues the same number of statements at 8, 64 and 256
  papers, at most 4 including the session-user load, for a PC member, an
  author and the chair;
* course ``/courses`` issues the same number at 8 and 64 courses;
* ``/paper/<jid>`` and ``/user/<jid>`` issue no more than 6 and 4;
* the first ``/paper/<jid>`` after a PC member's ``POST /review`` issues
  the same number at 8 and 64 papers, for a PC member, an author and the
  chair: a write leaves nothing behind that the next read must refill.

``tests/apps/test_conf.py::test_jacqueline_and_baseline_render_identical_pages``
keeps guarding the page bodies themselves.
"""

import pytest

from repro.apps.conf import ConferencePhase, build_conf_app, seed_conference, setup_conf
from repro.apps.course import build_course_app, seed_courses, setup_courses
from repro.cache import CacheConfig
from repro.db import Database, SqliteBackend
from repro.web import TestClient

BACKENDS = ("memory", "sqlite")


def _database(backend):
    return Database(SqliteBackend()) if backend == "sqlite" else Database()


def _statements(form, client, path):
    """Statements a warmed ``GET path`` issues (the first request warms)."""
    assert client.get(path).status == 200
    with form.database.observe_statements() as log:
        response = client.get(path)
    assert response.status == 200, response.body
    return len(log.statements)


def _conf_counts(backend, papers):
    form = setup_conf(_database(backend), cache_config=CacheConfig.disabled())
    created = seed_conference(form, papers=papers, users=papers, pc_members=4)
    app = build_conf_app(form)
    viewers = {
        "pc": (created["pc"][0], "pc"),
        "author": (created["users"][1], "normal"),
        "chair": (created["chair"][0], "chair"),
    }
    paper_jid = created["papers"][2].jid
    user_jid = created["users"][2].jid
    counts = {}
    for role, (user, level) in viewers.items():
        client = TestClient(app)
        client.force_login(user.jid, level)
        counts[role] = {
            "papers": _statements(form, client, "/papers"),
            "paper": _statements(form, client, f"/paper/{paper_jid}"),
            "user": _statements(form, client, f"/user/{user_jid}"),
        }
    ConferencePhase.reset()
    return counts


@pytest.mark.parametrize("backend", BACKENDS)
def test_conf_pages_issue_a_constant_number_of_statements(backend):
    by_size = {papers: _conf_counts(backend, papers) for papers in (8, 64, 256)}
    for role in ("pc", "author", "chair"):
        papers_counts = {size: counts[role]["papers"] for size, counts in by_size.items()}
        assert len(set(papers_counts.values())) == 1, (role, papers_counts)
        assert papers_counts[256] <= 4, (role, papers_counts)
        for counts in by_size.values():
            assert counts[role]["paper"] <= 6, (role, counts[role])
            assert counts[role]["user"] <= 4, (role, counts[role])


@pytest.mark.parametrize("backend", BACKENDS)
def test_courses_page_issues_a_constant_number_of_statements(backend):
    by_size = {}
    for courses in (8, 64):
        form = setup_courses(_database(backend), cache_config=CacheConfig.disabled())
        created = seed_courses(form, courses=courses)
        app = build_course_app(form)
        counts = []
        for user, role in ((created["students"][0], "student"),
                           (created["instructors"][0], "instructor")):
            client = TestClient(app)
            client.force_login(user.jid, role)
            counts.append(_statements(form, client, "/courses"))
        by_size[courses] = counts
    assert by_size[8] == by_size[64], by_size


def _paper_after_review_counts(backend, papers):
    """Statements of each viewer's first ``/paper/<jid>`` after a review."""
    form = setup_conf(_database(backend), cache_config=CacheConfig.disabled())
    created = seed_conference(form, papers=papers, users=papers, pc_members=4)
    app = build_conf_app(form)
    reviewer = TestClient(app)
    reviewer.force_login(created["pc"][1].jid, "pc")
    paper_jid = created["papers"][2].jid
    viewers = {
        "pc": (created["pc"][0], "pc"),
        "author": (created["users"][2], "normal"),
        "chair": (created["chair"][0], "chair"),
    }
    counts = {}
    for role, (user, level) in viewers.items():
        client = TestClient(app)
        client.force_login(user.jid, level)
        assert client.get(f"/paper/{paper_jid}").status == 200
        posted = reviewer.post(
            "/review", paper=str(paper_jid), contents=f"review for {role}", score="3"
        )
        assert posted.status in (302, 303), posted.body
        with form.database.observe_statements() as log:
            response = client.get(f"/paper/{paper_jid}")
        assert response.status == 200, response.body
        assert f"review for {role}" in response.body or role == "author"
        counts[role] = len(log.statements)
    ConferencePhase.reset()
    return counts


@pytest.mark.parametrize("backend", BACKENDS)
def test_paper_page_after_a_review_issues_a_constant_number_of_statements(backend):
    by_size = {papers: _paper_after_review_counts(backend, papers) for papers in (8, 64)}
    assert by_size[8] == by_size[64], by_size
