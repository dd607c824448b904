"""Aggregates under facets: the FORM's jvars-partition pushdown.

``count()``, ``exists()`` and ``aggregate()/sum()/avg()/min()/max()`` must
compile to one grouped SQL statement, merge per-partition aggregates into
per-world results identical to the row-fetching path, respect policies at
concretisation, and see every write made before them.
"""

import pytest

from repro.core.facets import Facet, collect_labels, facet_map, project_assignment
from repro.core.labels import Label
from repro.db import Database, MemoryBackend, SqliteBackend, StatementLog
from repro.form import (
    CharField,
    FORM,
    ForeignKey,
    IntegerField,
    JModel,
    jacqueline,
    label_for,
    use_form,
    viewer_context,
)


class AggAuthor(JModel):
    name = CharField(max_length=64)


class AggBook(JModel):
    name = CharField(max_length=64)
    pages = IntegerField()
    author = ForeignKey(AggAuthor)


class AggSecret(JModel):
    """Records always span two facet rows (public + secret title)."""

    title = CharField(max_length=64)
    owner = CharField(max_length=64)
    score = IntegerField()

    @staticmethod
    def jacqueline_get_public_title(record):
        return "[redacted]"

    @staticmethod
    @label_for("title")
    @jacqueline
    def jacqueline_restrict_title(record, viewer):
        return viewer is not None and getattr(viewer, "name", None) == record.owner


MODELS = [AggAuthor, AggBook, AggSecret]


class Viewer:
    def __init__(self, name):
        self.name = name


@pytest.fixture(params=["memory", "sqlite"])
def agg_form(request):
    if request.param == "memory":
        database = Database(MemoryBackend())
    else:
        database = Database(SqliteBackend())
    form = FORM(database)
    form.register_all(MODELS)
    with use_form(form):
        yield form
    database.close()


def _assignments(value):
    """Every label assignment a faceted value distinguishes."""
    labels = sorted(collect_labels(value))
    if not labels:
        return [dict()]
    assignments = []
    for mask in range(2 ** len(labels)):
        assignments.append(
            {label: bool(mask & (1 << i)) for i, label in enumerate(labels)}
        )
    return assignments


def _assert_faceted_equal(left, right):
    """Same value in every world (and structurally equal when both collapse)."""
    for assignment in _assignments(left) + _assignments(right):
        assert project_assignment(left, assignment) == project_assignment(
            right, assignment
        )


# -- faceted (viewer-free) results match the row-fetching path ---------------------------


def test_faceted_count_matches_legacy_structurally(agg_form):
    for index in range(4):
        AggSecret.objects.create(title=f"t{index}", owner="alice", score=index)
    queryset = AggSecret.objects.filter(owner="alice")
    legacy = facet_map(len, queryset.fetch())
    assert queryset.count() == legacy == 4


def test_faceted_count_discriminates_on_secret_facet(agg_form):
    AggSecret.objects.create(title="t0", owner="alice", score=1)
    queryset = AggSecret.objects.filter(title="t0")
    pushed = queryset.count()
    legacy = facet_map(len, queryset.fetch())
    assert isinstance(pushed, Facet)
    assert pushed == legacy  # structural: <AggSecret.1.title ? 1 : 0>
    _assert_faceted_equal(pushed, legacy)


def test_faceted_exists_and_concretisation_respect_policies(agg_form):
    AggSecret.objects.create(title="t0", owner="alice", score=1)
    exists = AggSecret.objects.filter(title="t0").exists()
    assert isinstance(exists, Facet)
    runtime = agg_form.runtime
    assert runtime.concretize(exists, Viewer("alice")) is True
    assert runtime.concretize(exists, Viewer("bob")) is False
    count = AggSecret.objects.filter(title="t0").count()
    assert runtime.concretize(count, Viewer("alice")) == 1
    assert runtime.concretize(count, Viewer("bob")) == 0


def test_faceted_sum_over_secret_matches_legacy(agg_form):
    AggSecret.objects.create(title="t0", owner="alice", score=10)
    AggSecret.objects.create(title="t1", owner="alice", score=5)
    queryset = AggSecret.objects.filter(title="t0")
    pushed = queryset.sum("score")

    def legacy_sum(items):
        values = [item.score for item in items if item.score is not None]
        return sum(values) if values else None

    legacy = facet_map(legacy_sum, queryset.fetch())
    _assert_faceted_equal(pushed, legacy)
    assert agg_form.runtime.concretize(pushed, Viewer("alice")) == 10
    assert agg_form.runtime.concretize(pushed, Viewer("bob")) is None


def test_faceted_aggregates_collapse_when_worlds_agree(agg_form):
    for index in range(3):
        AggSecret.objects.create(title=f"t{index}", owner="alice", score=index + 1)
    queryset = AggSecret.objects.filter(owner="alice")
    # score is not guarded: every world sees the same aggregate -> plain.
    assert queryset.sum("score") == 6
    assert queryset.min("score") == 1
    assert queryset.max("score") == 3
    assert queryset.avg("score") == 2.0
    assert queryset.exists() is True


# -- viewer-context results ---------------------------------------------------------------


def test_viewer_count_on_policied_model_matches_legacy(agg_form):
    for index in range(3):
        AggSecret.objects.create(title=f"t{index}", owner="alice", score=index)
    queryset = AggSecret.objects.filter(owner="alice")
    with viewer_context(Viewer("alice")):
        assert queryset.count() == len(queryset.fetch()) == 3
        assert queryset.exists() is True
    with viewer_context(Viewer("bob")):
        # bob sees the public facet of every record: still 3 records.
        assert queryset.count() == 3
    # A filter on the secret facet matches nothing for bob.
    secret = AggSecret.objects.filter(title="t0")
    with viewer_context(Viewer("bob")):
        assert secret.count() == 0
        assert secret.exists() is False
    with viewer_context(Viewer("alice")):
        assert secret.count() == 1
        assert secret.exists() is True


def test_viewer_aggregates_on_plain_model(agg_form):
    author = AggAuthor.objects.create(name="ada")
    for index, pages in enumerate((100, None, 300)):
        AggBook.objects.create(name=f"b{index}", pages=pages, author=author)
    queryset = AggBook.objects.all()
    with viewer_context(Viewer("ada")):
        assert queryset.count() == 3
        assert queryset.exists() is True
        assert queryset.sum("pages") == 400
        assert queryset.avg("pages") == 200.0
        assert queryset.min("pages") == 100
        assert queryset.max("pages") == 300
        assert queryset.aggregate("pages", "COUNT") == 2  # NULLs skipped


def test_viewer_aggregates_under_joins(agg_form):
    ada = AggAuthor.objects.create(name="ada")
    bob = AggAuthor.objects.create(name="bob")
    AggBook.objects.create(name="b0", pages=100, author=ada)
    AggBook.objects.create(name="b1", pages=300, author=ada)
    AggBook.objects.create(name="b2", pages=50, author=bob)
    queryset = AggBook.objects.filter(author__name="ada")
    with viewer_context(Viewer("x")):
        assert queryset.count() == 2
        assert queryset.sum("pages") == 400
        assert queryset.exists() is True
    # Faceted mode agrees (no policies anywhere: plain values).
    assert queryset.count() == 2
    assert queryset.sum("pages") == 400


def test_aggregates_on_empty_and_all_null(agg_form):
    queryset = AggBook.objects.all()
    assert queryset.count() == 0
    assert queryset.exists() is False
    assert queryset.sum("pages") is None
    assert queryset.min("pages") is None
    assert queryset.avg("pages") is None
    author = AggAuthor.objects.create(name="ada")
    AggBook.objects.create(name="b0", pages=None, author=author)
    assert queryset.count() == 1
    assert queryset.sum("pages") is None
    assert queryset.aggregate("pages", "COUNT") == 0
    with viewer_context(Viewer("ada")):
        assert queryset.sum("pages") is None
        assert queryset.min("pages") is None


def test_unknown_aggregate_function_rejected(agg_form):
    with pytest.raises(ValueError, match="unknown aggregate"):
        AggBook.objects.all().aggregate("pages", "MEDIAN")


def test_unknown_field_rejected(agg_form):
    # A typo must be an error, not a silent NULL (or, on SQLite, the
    # double-quoted-string misfeature turning it into a literal).
    with pytest.raises(ValueError, match="unknown field"):
        AggBook.objects.all().aggregate("typo", "SUM")


def test_sum_avg_require_numeric_field(agg_form):
    # SQL coerces text to 0 while Python concatenates or raises; the API
    # rejects the divergence.  MIN/MAX/COUNT on text stay legal.
    with pytest.raises(ValueError, match="numeric"):
        AggBook.objects.all().sum("name")
    with pytest.raises(ValueError, match="numeric"):
        AggBook.objects.all().avg("name")
    author = AggAuthor.objects.create(name="ada")
    AggBook.objects.create(name="b0", pages=1, author=author)
    AggBook.objects.create(name="b1", pages=2, author=author)
    assert AggBook.objects.all().min("name") == "b0"
    assert AggBook.objects.all().max("name") == "b1"
    assert AggBook.objects.all().aggregate("name", "COUNT") == 2
    assert AggBook.objects.all().aggregate("jid", "COUNT") == 2


# -- bounded query sets keep the record-counting fallback --------------------------------


def test_bounded_queryset_count_counts_records(agg_form):
    for index in range(5):
        AggSecret.objects.create(title=f"t{index}", owner="alice", score=index)
    with viewer_context(Viewer("alice")):
        bounded = AggSecret.objects.all().order_by("title").limited(2)
        assert bounded.count() == 2
        assert bounded.exists() is True
        assert bounded.sum("score") == 0 + 1


# -- single-statement shape ---------------------------------------------------------------


def test_count_and_exists_issue_one_grouped_statement():
    backend = SqliteBackend()
    log = StatementLog(backend)
    form = FORM(Database(backend))
    form.register_all(MODELS)
    with use_form(form):
        author = AggAuthor.objects.create(name="ada")
        for index in range(3):
            AggBook.objects.create(name=f"b{index}", pages=index, author=author)
        log.clear()
        assert AggBook.objects.all().count() == 3
        with viewer_context(Viewer("ada")):
            assert AggBook.objects.all().count() == 3
            assert AggBook.objects.all().exists() is True
            assert AggBook.objects.all().sum("pages") == 3
    grouped = 'SELECT "jvars" AS "jvars"'
    assert len(log.statements) == 4
    assert all(statement.startswith(grouped) for statement in log.statements)
    assert all('GROUP BY "jvars"' in statement for statement in log.statements)
    backend.close()


def test_joined_count_groups_by_every_jvars_column():
    backend = SqliteBackend()
    log = StatementLog(backend)
    form = FORM(Database(backend))
    form.register_all(MODELS)
    with use_form(form):
        ada = AggAuthor.objects.create(name="ada")
        AggBook.objects.create(name="b0", pages=10, author=ada)
        log.clear()
        assert AggBook.objects.filter(author__name="ada").count() == 1
    assert len(log.statements) == 1
    statement = log.statements[0]
    assert 'GROUP BY "AggBook"."jvars", "AggAuthor"."jvars"' in statement
    assert 'COUNT(*) AS "COUNT(*)"' in statement
    backend.close()


# -- read after write ---------------------------------------------------------------------


def test_cached_aggregate_plan_invalidated_by_writes(agg_form):
    author = AggAuthor.objects.create(name="ada")
    queryset = AggBook.objects.all()
    assert queryset.count() == 0
    AggBook.objects.create(name="b0", pages=10, author=author)
    assert queryset.count() == 1  # each count runs after the write
    AggBook.objects.create(name="b1", pages=20, author=author)
    assert queryset.count() == 2
    assert queryset.sum("pages") == 30
    AggBook.objects.filter(name="b1").delete()
    assert queryset.count() == 1
    assert queryset.sum("pages") == 10


def test_only_discriminating_labels_surface_in_a_count(agg_form):
    AggSecret.objects.create(title="t0", owner="alice", score=1)
    AggSecret.objects.create(title="t1", owner="alice", score=2)
    # Full-partition count: no label survives the merge.
    assert AggSecret.objects.filter(owner="alice").count() == 2
    # A discriminating filter surfaces exactly its label, whose policy the
    # FORM finds at concretisation: the reads declared nothing.
    result = AggSecret.objects.filter(title="t0").count()
    assert collect_labels(result) == frozenset({Label(name="AggSecret.1.title")})
    assert len(agg_form.runtime.policy_env) == 0
    assert agg_form.runtime.concretize(result, Viewer("alice")) == 1
    assert agg_form.runtime.concretize(result, Viewer("bob")) == 0
