"""FORM-level read-after-write: every read sees the writes before it.

The ``conf_form`` fixture runs every test against both backends (the
``database`` fixture is parametrized over the memory engine and SQLite).
"""

import pytest

from repro.apps.conf.models import ConferencePhase, ConfUser, Paper
from repro.apps.conf.seed import seed_conference
from repro.apps.conf.views import setup_conf
from repro.form import use_form, viewer_context


@pytest.fixture
def conf_form(database):
    form = setup_conf(database)
    yield form
    ConferencePhase.reset()


def _titles(papers):
    return sorted(p.title for p in papers)


def test_create_invalidates_cached_view(conf_form):
    created = seed_conference(conf_form, papers=4)
    chair = created["chair"][0]
    author = created["users"][0]
    with use_form(conf_form):
        with viewer_context(chair):
            before = Paper.objects.all().fetch()
        Paper.objects.create(title="Fresh Result", author=author)
        with viewer_context(chair):
            after = Paper.objects.all().fetch()
    assert len(after) == len(before) + 1
    assert "Fresh Result" in _titles(after)


def test_update_through_save_invalidates(conf_form):
    created = seed_conference(conf_form, papers=4)
    chair = created["chair"][0]
    with use_form(conf_form):
        with viewer_context(chair):
            target = ConfUser.objects.get(name="author0")
            assert target.email == "author0@conf.org"
        target.email = "changed@conf.org"
        target.save()
        with viewer_context(chair):
            fresh = ConfUser.objects.get(name="author0")
    # The chair sees every email; a stale read would show the old address.
    assert fresh.email == "changed@conf.org"


def test_delete_invalidates(conf_form):
    created = seed_conference(conf_form, papers=4)
    chair = created["chair"][0]
    with use_form(conf_form):
        with viewer_context(chair):
            papers = Paper.objects.all().fetch()
            count_before = len(papers)
        papers[0].delete()
        with viewer_context(chair):
            remaining = Paper.objects.all().fetch()
    assert len(remaining) == count_before - 1


def test_queryset_delete_invalidates(conf_form):
    created = seed_conference(conf_form, papers=4)
    chair = created["chair"][0]
    with use_form(conf_form):
        Paper.objects.filter(title="Paper 0").delete()
        with viewer_context(chair):
            remaining = Paper.objects.all().fetch()
    assert "Paper 0" not in _titles(remaining)


def test_phase_change_refreshes_label_outcomes(conf_form):
    """Out-of-band policy state (the phase) must not leave stale outcomes."""
    created = seed_conference(conf_form, papers=4)
    author = created["users"][1]  # not the author of Paper 0
    with use_form(conf_form):
        with viewer_context(author):
            during_review = Paper.objects.get(title="Paper 0")
            assert during_review.author is None  # anonymous during review
        ConferencePhase.set(ConferencePhase.FINAL)
        with viewer_context(author):
            after_decision = Paper.objects.get(title="Paper 0")
            assert after_decision.author is not None


def test_stats_reporting_shape(conf_form):
    """``FORM.caches.stats()`` is kept for perfbench: both of the layers
    its report names read zero."""
    created = seed_conference(conf_form, papers=2)
    chair = created["chair"][0]
    with use_form(conf_form), viewer_context(chair):
        Paper.objects.all().fetch()
        Paper.objects.all().fetch()
    stats = conf_form.caches.stats()
    assert set(stats) == {"queries", "labels"}
    for layer in stats.values():
        assert {"hits", "misses", "puts", "evictions", "invalidations",
                "hit_rate"} <= set(layer)
        assert set(layer.values()) == {0}
