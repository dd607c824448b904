"""Rendered pages over warm caches in the web layer.

The pages are rendered per request; the query cache below them, shared
by every viewer, must keep each viewer's page their own and show a write
on the next page.
"""

import pytest

from repro.apps.conf.models import ConferencePhase
from repro.apps.conf.seed import seed_conference
from repro.apps.conf.views import build_conf_app, setup_conf
from repro.db import Database, MemoryBackend
from repro.web import TestClient


@pytest.fixture
def fragment_app():
    form = setup_conf(Database(MemoryBackend()))
    created = seed_conference(form, papers=6)
    app = build_conf_app(form)
    yield form, app, created
    ConferencePhase.reset()


def _client_for(app, viewer):
    client = TestClient(app)
    client.force_login(viewer.jid, viewer.name)
    return client


def test_fragments_are_per_viewer(fragment_app):
    form, app, created = fragment_app
    chair = _client_for(app, created["chair"][0])
    author = _client_for(app, created["users"][0])
    for _warm in range(2):
        chair_body = chair.get("/users").body
        author_body = author.get("/users").body
    # The chair sees every email; the author sees placeholders.  If a
    # warm cache served one viewer's rows to the other, one of the two
    # would get the other's page.
    assert "author1@conf.org" in chair_body
    assert "author1@conf.org" not in author_body
    assert "[hidden email]" in author_body
    assert form.caches.queries.stats.hits > 0


def test_post_invalidates_fragments(fragment_app):
    form, app, created = fragment_app
    author = created["users"][0]
    client = _client_for(app, author)
    before = client.get("/papers")
    assert "Brand New Paper" not in before.body
    response = client.post("/submit", title="Brand New Paper")
    assert response.status in (302, 200)
    after = client.get("/papers")
    assert "Brand New Paper" in after.body

