"""What a read hands out: each instance's state.

A read turns each row of its statement into one instance, the row's dict
becoming the instance's ``__dict__``, and a query-cache hit builds its
instances from copies of the cached states.  On both backends, with the
caches on and off, and over every read path (a pushed fetch, the Python
pruning path, a no-viewer faceted fetch, ``first()`` and ``get()``, a
join-filtered fetch and a batched foreign-key dereference), each read runs
twice, the second a query-cache hit when the caches are on.  Every
instance's state must hold exactly ``jid`` and the model's field columns,
plus ``_siblings`` and ``_fk_cache_*`` where those mechanisms set them:
never a facet row's ``id`` or ``jvars``, which would tell a viewer which
facet it was served.  Assigning to a fetched instance must change neither
the stored rows nor the next read's instance.  A SQLite file whose tables
keep a column the models no longer declare must not expose it.
"""

import datetime
import sqlite3

import pytest

from repro.cache import CacheConfig
from repro.core.facets import Facet
from repro.db import Database, SqliteBackend, schema_to_sql
from repro.form import (
    FORM,
    BooleanField,
    CharField,
    DateTimeField,
    ForeignKey,
    JModel,
    jacqueline,
    label_for,
    use_form,
    viewer_context,
)

WHEN = datetime.datetime(2020, 1, 1, 9, 30)


class StateOwner(JModel):
    name = CharField(max_length=64)


class StateItem(JModel):
    """An inline policy: a viewer-context read pushes it."""

    owner = ForeignKey(StateOwner)
    title = CharField(max_length=64)
    done = BooleanField(default=False)
    when = DateTimeField()

    @staticmethod
    def jacqueline_get_public_title(item):
        return "[hidden]"

    @staticmethod
    @label_for("title")
    @jacqueline
    def jacqueline_restrict_title(item, ctxt):
        return ctxt is not None and item.owner_id == ctxt.jid


MODELS = [StateOwner, StateItem]


def _leaves(value):
    """Every instance of a faceted collection, whose leaves are lists."""
    if isinstance(value, Facet):
        return _leaves(value.high) + _leaves(value.low)
    return list(value)


def _pushed(form, viewer):
    with viewer_context(viewer):
        return StateItem.objects.all().fetch()


def _python(form, viewer):
    form.policy_pushdown_enabled = False
    try:
        with viewer_context(viewer):
            return StateItem.objects.all().fetch()
    finally:
        form.policy_pushdown_enabled = True


def _faceted(form, viewer):
    return _leaves(StateItem.objects.all().fetch())


def _first_and_get(form, viewer):
    with viewer_context(viewer):
        return [
            StateItem.objects.filter(owner=viewer).first(),
            StateItem.objects.get(jid=2),
            StateOwner.objects.get(name="bob"),
        ]


def _joined(form, viewer):
    with viewer_context(viewer):
        return StateItem.objects.filter(owner__name="ada").fetch()


def _dereferenced(form, viewer):
    with viewer_context(viewer):
        items = StateItem.objects.all().fetch()
        return items + [item.owner for item in items]


READS = {
    "pushed": _pushed,
    "python": _python,
    "faceted": _faceted,
    "first-get": _first_and_get,
    "joined": _joined,
    "dereferenced": _dereferenced,
}


def _seed():
    ada = StateOwner.objects.create(name="ada")
    bob = StateOwner.objects.create(name="bob")
    for index in range(4):
        StateItem.objects.create(
            owner=ada if index % 2 else bob, title=f"t{index}", done=index % 2 == 0,
            when=WHEN + datetime.timedelta(days=index),
        )
    return ada


def _columns(instance):
    return ("jid", *(field.column_name for field in type(instance)._meta.fields.values()))


def _check_state(instance):
    meta = type(instance)._meta
    keys = set(instance.__dict__)
    assert "id" not in keys and "jvars" not in keys
    optional = {"_siblings"} | {
        f"_fk_cache_{name}" for name, field in meta.fields.items()
        if isinstance(field, ForeignKey)
    }
    assert set(_columns(instance)) <= keys and keys - set(_columns(instance)) <= optional, keys


def _values(instances):
    """Each instance's model, jid and column values, in a stable order."""
    return sorted(
        repr((type(instance).__name__, *(instance.__dict__[c] for c in _columns(instance))))
        for instance in instances
    )


def _stored(form):
    return sorted(
        repr(sorted(row.items()))
        for model in MODELS for row in form.database.rows(model._meta.table_name)
    )


def _form(database, caches):
    form = FORM(database, cache_config=CacheConfig() if caches else CacheConfig.disabled())
    form.register_all(MODELS)
    return form


@pytest.mark.parametrize("read", sorted(READS))
@pytest.mark.parametrize("caches", [False, True], ids=["uncached", "cached"])
@pytest.mark.parametrize("kind", ["memory", "sqlite"])
def test_a_read_hands_out_fresh_state_of_the_model_columns(kind, caches, read):
    database = Database() if kind == "memory" else Database(SqliteBackend())
    form = _form(database, caches)
    with use_form(form):
        ada = _seed()
        stored = _stored(form)
        first = READS[read](form, ada)
        assert first and all(instance is not None for instance in first)
        for instance in first:
            _check_state(instance)
        if read in ("pushed", "python", "dereferenced"):  # four records
            assert all(item.__dict__.get("_siblings") for item in first[:4])
        if read == "dereferenced":
            assert all("_fk_cache_owner" in item.__dict__ for item in first[:4])
        expected = _values(first)
        for instance in first:
            for column in _columns(instance):
                setattr(instance, column, "changed")
        assert _stored(form) == stored
        hits = form.caches.queries.stats.hits
        again = READS[read](form, ada)
        assert not set(map(id, again)) & set(map(id, first))
        for instance in again:
            _check_state(instance)
        assert _values(again) == expected
        assert (form.caches.queries.stats.hits > hits) == caches
    database.close()


def _older_file(path):
    """A SQLite file whose model tables hold one more column, ``legacy``."""
    connection = sqlite3.connect(path)
    for model in MODELS:
        connection.execute(schema_to_sql(model._meta.table_schema()).replace(
            '"id" INTEGER PRIMARY KEY AUTOINCREMENT, ',
            '"id" INTEGER PRIMARY KEY AUTOINCREMENT, "legacy" TEXT DEFAULT \'old\', ',
        ))
    connection.commit()
    connection.close()


@pytest.mark.parametrize("caches", [False, True], ids=["uncached", "cached"])
def test_a_column_the_model_no_longer_declares_stays_hidden(tmp_path, caches):
    path = str(tmp_path / "older.db")
    _older_file(path)
    database = Database(SqliteBackend(path))
    form = _form(database, caches)
    with use_form(form):
        ada = _seed()
        assert all(row["legacy"] == "old" for row in database.rows("StateItem"))
        for read in READS.values():
            for _round in range(2):
                instances = read(form, ada)
                assert instances
                for instance in instances:
                    _check_state(instance)
                    assert "legacy" not in instance.__dict__
                assert _values(instances) == _values(read(form, ada))
    database.close()


@pytest.mark.parametrize("kind", ["memory", "sqlite"])
def test_a_join_filtered_read_equals_the_plain_read(kind):
    """The join's rows carry the base table's BOOLEAN and DATETIME
    columns: SQLite decodes them as it decodes a single-table read's."""
    database = Database() if kind == "memory" else Database(SqliteBackend())
    form = _form(database, caches=False)
    with use_form(form):
        ada = _seed()
        with viewer_context(ada):
            joined = StateItem.objects.filter(owner__name="ada").fetch()
            plain = StateItem.objects.filter(owner=ada).fetch()
        assert len(joined) == 2 and _values(joined) == _values(plain)
        assert all(type(item.done) is bool and item.when >= WHEN for item in joined)
    database.close()
