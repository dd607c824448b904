"""Non-leakage: one viewer's facet never reaches another viewer's read.

Directed probes on a seeded conference: each viewer reads right after
another viewer read the same records, and must see exactly their own
facet.
"""

import pytest

from repro.apps.conf.models import ConferencePhase, ConfUser, Paper
from repro.apps.conf.seed import seed_conference
from repro.apps.conf.views import setup_conf
from repro.db import Database, MemoryBackend
from repro.form import use_form, viewer_context


@pytest.fixture
def conf():
    form = setup_conf(Database(MemoryBackend()))
    yield form, seed_conference(form, papers=6, pc_members=3)
    ConferencePhase.reset()


def test_author_identity_never_leaks_between_authors(conf):
    form, created = conf
    author0, author1 = created["users"][0], created["users"][1]
    with use_form(form):
        with viewer_context(author0):
            own = Paper.objects.get(title="Paper 0")
            assert own.author is not None and own.author.name == author0.name
        # author1 queries the same paper right after author0; the
        # authorship must stay anonymous.
        with viewer_context(author1):
            other = Paper.objects.get(title="Paper 0")
            assert other.author is None
        # And author1's public placeholder must not blind author0 on a
        # subsequent read.
        with viewer_context(author0):
            again = Paper.objects.get(title="Paper 0")
            assert again.author is not None and again.author.name == author0.name


def test_email_visibility_per_viewer_with_warm_caches(conf):
    form, created = conf
    chair = created["chair"][0]
    author0 = created["users"][0]
    with use_form(form):
        with viewer_context(chair):
            seen_by_chair = {u.name: u.email for u in ConfUser.objects.all().fetch()}
        with viewer_context(author0):
            seen_by_author = {u.name: u.email for u in ConfUser.objects.all().fetch()}
    assert seen_by_chair["author1"] == "author1@conf.org"  # chair sees all
    assert seen_by_author["author0"] == "author0@conf.org"  # own email
    assert seen_by_author["author1"] == "[hidden email]"  # others hidden
