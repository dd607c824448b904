"""Manager helpers: get_or_create, bulk_create and order_by parsing."""

import pytest

from repro.apps.conf.models import ConferencePhase, ConfUser, Paper
from repro.apps.conf.seed import seed_conference
from repro.apps.conf.views import setup_conf
from repro.db import Database, MemoryBackend
from repro.form import use_form, viewer_context


@pytest.fixture
def conf_form():
    form = setup_conf(Database(MemoryBackend()))
    yield form
    ConferencePhase.reset()


# -- get_or_create ----------------------------------------------------------------------


def test_get_or_create_creates_then_finds(conf_form):
    with use_form(conf_form):
        user, created = ConfUser.objects.get_or_create(
            name="dana", defaults={"email": "dana@conf.org", "level": "pc"}
        )
        assert created is True
        assert user.jid is not None and user.email == "dana@conf.org"
        again, created_again = ConfUser.objects.get_or_create(name="dana")
        assert created_again is False
        assert again.jid == user.jid


def test_get_or_create_rejects_join_lookups_on_create(conf_form):
    with use_form(conf_form):
        with pytest.raises(ValueError):
            Paper.objects.get_or_create(author__name="nobody", title="x")


# -- bulk_create -------------------------------------------------------------------------


def test_bulk_create_matches_per_row_saves(conf_form):
    with use_form(conf_form):
        bulk = ConfUser.objects.bulk_create(
            [ConfUser(name=f"bulk{i}", email=f"b{i}@x.org") for i in range(5)]
        )
        loop = []
        for i in range(5):
            loop.append(ConfUser.objects.create(name=f"loop{i}", email=f"l{i}@x.org"))
        assert all(user.jid is not None for user in bulk)
        assert len({user.jid for user in bulk + loop}) == 10
        chair = ConfUser.objects.create(name="c", level="chair")
        with viewer_context(chair):
            names = {u.name for u in ConfUser.objects.all().fetch()}
            emails = {u.email for u in ConfUser.objects.all().fetch()}
    assert {f"bulk{i}" for i in range(5)} <= names
    assert {f"loop{i}" for i in range(5)} <= names
    # The chair sees the secret facet of bulk-created rows too.
    assert {f"b{i}@x.org" for i in range(5)} <= emails


def test_bulk_create_writes_one_event_per_table(conf_form):
    bus = conf_form.database.invalidation
    events, writes = bus.events_published, bus.write_generation("ConfUser")
    with use_form(conf_form):
        ConfUser.objects.bulk_create(
            [ConfUser(name=f"u{i}") for i in range(10)]
        )
    assert bus.events_published == events + 1
    assert bus.write_generation("ConfUser") == writes + 1


def test_bulk_create_falls_back_for_saved_instances(conf_form):
    with use_form(conf_form):
        existing = ConfUser.objects.create(name="old", email="old@x.org")
        existing.email = "new@x.org"
        ConfUser.objects.bulk_create([existing, ConfUser(name="fresh")])
        chair = ConfUser.objects.create(name="c2", level="chair")
        with viewer_context(chair):
            assert ConfUser.objects.get(name="old").email == "new@x.org"
            assert ConfUser.objects.get(name="fresh") is not None


def test_seed_uses_bulk_writes(conf_form):
    """Seeding issues a bounded number of write events, not one per row."""
    bus = conf_form.database.invalidation
    events = bus.events_published
    seed_conference(conf_form, papers=16)
    # chair (1 insert) + one bulk write per seeded kind; far fewer events
    # than the ~100+ facet rows written.
    assert bus.events_published - events < 10


# -- order_by ---------------------------------------------------------------------------


def test_order_by_ascending_and_descending(conf_form):
    with use_form(conf_form):
        for name in ("mallory", "alice", "zoe"):
            ConfUser.objects.create(name=name)
        chair = ConfUser.objects.create(name="bob", level="chair")
        with viewer_context(chair):
            ascending = [u.name for u in ConfUser.objects.all().order_by("name")]
            descending = [u.name for u in ConfUser.objects.all().order_by("-name")]
    assert ascending == sorted(ascending)
    assert descending == sorted(descending, reverse=True)


@pytest.mark.parametrize("bad", ["", "-", "--name", "---name"])
def test_order_by_rejects_malformed_fields(conf_form, bad):
    with use_form(conf_form):
        with pytest.raises(ValueError):
            ConfUser.objects.all().order_by(bad)
