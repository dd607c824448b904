"""Baseline ORM record writes: ``Model.save()`` and ``Model.delete()``."""

import pytest

from repro.baseline.fields import ForeignKey
from repro.baseline.model import BaselineDB, DoesNotExist, Model, use_baseline_db
from repro.db import Database, MemoryBackend, SqliteBackend
from repro.form.fields import CharField, IntegerField


class Team(Model):
    name = CharField(max_length=64)


class Player(Model):
    team = ForeignKey(Team)
    name = CharField(max_length=64)
    goals = IntegerField(default=0)


@pytest.fixture(params=["memory", "sqlite"])
def baseline_db(request):
    backend = {"memory": MemoryBackend, "sqlite": SqliteBackend}[request.param]()
    db = BaselineDB(Database(backend))
    db.register_all([Team, Player])
    with use_baseline_db(db):
        yield db
    if request.param == "sqlite":
        db.database.close()


def test_model_delete_clears_pk(baseline_db):
    red = Team.objects.create(name="red")
    player = Player.objects.create(team=red, name="temp")
    pk = player.pk
    player.delete()
    assert player.pk is None
    with pytest.raises(DoesNotExist):
        Player.objects.get(pk=pk)
    # A later save re-creates the record instead of resurrecting the pk.
    player.save()
    assert player.pk is not None and player.pk != pk
