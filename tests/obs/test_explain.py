"""``Query.explain()`` / ``QuerySet.explain()``: the reported SQL is the
executed SQL, verified against the statement observer on every path."""

import pytest

from repro.db import Database, SqliteBackend, StatementLog
from repro.form import (
    FORM,
    CharField,
    ForeignKey,
    IntegerField,
    JModel,
    jacqueline,
    label_for,
    use_form,
    viewer_context,
)


class Author(JModel):
    name = CharField(max_length=64)


class Paper(JModel):
    author = ForeignKey(Author)
    title = CharField(max_length=128)
    status = CharField(max_length=32, default="submitted")
    score = IntegerField(default=0)

    @staticmethod
    def jacqueline_get_public_title(paper):
        return "[anonymous]"

    @staticmethod
    @label_for("title")
    @jacqueline
    def jacqueline_restrict_title(paper, ctxt):
        return ctxt is not None and paper.author_id == ctxt.jid


@pytest.fixture
def form():
    backend = SqliteBackend()
    database = Database(backend)
    form = FORM(database)
    form.register_all([Author, Paper])
    with use_form(form):
        author = Author.objects.create(name="ada")
        for i in range(3):
            Paper.objects.create(author=author, title=f"t{i}", score=i)
        yield form, backend, author
    database.close()


def _observed_sql(backend, run):
    with StatementLog(backend) as log:
        run()
    return [event.sql for event in log.events]


def test_fetch_explain_matches_executed_sql(form):
    form_, backend, author = form
    qs = Paper.objects.filter(author=author)
    report = qs.explain()
    assert report["operation"] == "fetch"
    assert report["plan"] == "scan"
    assert report["mode"] == "faceted"
    assert report["tables"] == ["Paper"]
    assert report["sql"] in _observed_sql(backend, qs.fetch)


def test_bounded_fetch_explain_reports_key_subselect(form):
    form_, backend, author = form
    qs = Paper.objects.filter(author=author).order_by("score").limited(2)
    report = qs.explain()
    assert report["plan"] == "key-subselect"
    assert 'jid IN (SELECT "jid" FROM "Paper"' in report["sql"]
    assert "LIMIT 2" in report["sql"]
    assert report["sql"] in _observed_sql(backend, qs.fetch)


def test_explain_mode_reflects_the_viewer_context(form):
    form_, _backend, author = form
    with viewer_context(author):
        # Paper's policy renders inline, so the pruning predicate compiles
        # into the statement itself.
        assert Paper.objects.all().explain()["mode"] == "policy-pushdown"
        form_.policy_pushdown_enabled = False
        try:
            assert Paper.objects.all().explain()["mode"] == "pruned"
        finally:
            form_.policy_pushdown_enabled = True
    assert Paper.objects.all().explain()["mode"] == "faceted"


def test_count_explain_matches_the_grouped_statement(form):
    form_, backend, _author = form
    qs = Paper.objects.all()
    report = qs.explain("count")
    assert report["plan"] == "grouped-aggregate"
    assert "GROUP BY" in report["sql"]
    assert report["sql"] in _observed_sql(backend, qs.count)


def test_aggregate_explain_matches_the_grouped_statement(form):
    form_, backend, _author = form
    qs = Paper.objects.all()
    report = qs.explain("aggregate", field="score", function="AVG")
    assert report["plan"] == "grouped-aggregate"
    # AVG ships (SUM, COUNT) ingredients; both appear in the statement.
    assert 'SUM("score")' in report["sql"] and 'COUNT("score")' in report["sql"]
    assert report["sql"] in _observed_sql(backend, lambda: qs.avg("score"))


def test_bounded_count_explain_reports_the_fetch_fallback(form):
    form_, _backend, _author = form
    report = Paper.objects.all().limited(2).explain("count")
    assert report["plan"] == "fetch-fallback"
    assert report["reason"] == "bounded query set"


def test_update_fast_path_explain_matches_executed_sql(form):
    form_, backend, author = form
    qs = Paper.objects.filter(author=author)
    report = qs.explain("update", status="accepted")
    assert (report["plan"], report["path"]) == ("update-pushdown", "fast")
    assert report["sql"].startswith('UPDATE "Paper" SET "status" = ?')
    assert report["sql"] in _observed_sql(
        backend, lambda: qs.update(status="accepted")
    )


def test_update_fallback_explain_matches_the_jid_projection(form):
    form_, backend, author = form
    qs = Paper.objects.filter(author=author)
    # "title" is policied: the write takes the batched facet rewrite, whose
    # first statement is the projected jid query the explain reports.
    report = qs.explain("update", title="x")
    assert (report["plan"], report["path"]) == ("batched-facet-rewrite", "fallback")
    assert 'SELECT DISTINCT "jid"' in report["sql"]
    assert report["sql"] in _observed_sql(backend, lambda: qs.update(title="x"))


def test_delete_fast_path_explain_matches_executed_sql(form):
    form_, backend, author = form
    qs = Paper.objects.filter(author=author)
    report = qs.explain("delete")
    assert (report["plan"], report["path"]) == ("delete-pushdown", "fast")
    assert report["sql"].startswith('DELETE FROM "Paper"')
    assert report["sql"] in _observed_sql(backend, qs.delete)


def test_unknown_operation_raises(form):
    with pytest.raises(ValueError, match="unknown explain operation"):
        Paper.objects.all().explain("vacuum")


def test_explain_executes_nothing(form):
    form_, backend, author = form
    with StatementLog(backend) as log:
        Paper.objects.filter(author=author).explain()
        Paper.objects.all().explain("count")
        Paper.objects.all().explain("update", status="x")
        Paper.objects.all().explain("delete")
    assert log.events == []


# -- explain() counts nothing and carries the backend detail, on both backends --------


@pytest.fixture(params=["memory", "sqlite"])
def conf(request):
    """The conference app, seeded, on each backend."""
    from repro.apps.conf.seed import seed_conference
    from repro.apps.conf.views import setup_conf

    database = Database() if request.param == "memory" else Database(SqliteBackend())
    form = setup_conf(database)
    created = seed_conference(form, papers=4)
    with use_form(form):
        yield request.param, created
    database.close()


def test_explain_bumps_no_counter_and_names_the_fallback_the_read_counts(conf):
    from repro import obs
    from repro.apps.conf.models import Paper as ConfPaper, Review

    _kind, created = conf
    with viewer_context(created["pc"][0]), obs.tracing():
        before = obs.totals.snapshot()
        report = Review.objects.all().explain()
        bounded = Review.objects.all().limited(2).explain()
        ConfPaper.objects.all().explain("count")
        assert obs.totals.snapshot() == before
        # Review's policy is opaque: the read counts the fallback its
        # report names, once, when it runs.
        assert report["fallback"] == "plan.policy_pushdown.opaque_fallback"
        assert "fallback" not in bounded
        Review.objects.all().fetch()
        Review.objects.all().limited(2).fetch()
    assert obs.totals.get("plan.policy_pushdown.opaque_fallback") == 1
    assert obs.totals.get("plan.bounded") == 1


def test_a_pruned_explain_names_why_its_model_is_opaque(conf):
    from repro.apps.conf.models import Paper as ConfPaper, Review

    _kind, created = conf
    with viewer_context(created["pc"][0]):
        review = Review.objects.all().explain()
        joined = Review.objects.filter(paper__title="Paper 0").explain()
        paper = ConfPaper.objects.all().explain()
    assert (review["mode"], review["fallback_reason"]) == (
        "pruned", "lookup on policied model 'Paper'"
    )
    assert joined["fallback_reason"] == review["fallback_reason"]
    # The conflict lookup's subquery is no record-key subselect.
    assert (paper["mode"], paper["plan"]) == ("policy-pushdown", "scan")
    assert "fallback" not in paper and "fallback_reason" not in paper


def test_every_read_explain_carries_the_backend_plan_detail(conf):
    from repro.apps.conf.models import ConfUser, Paper as ConfPaper

    kind, created = conf
    detail = (
        {"chosen_plan"} if kind == "memory"
        else {"sqlite_plan", "index_ddl"}
    )
    with viewer_context(created["users"][0]):
        reports = [
            ConfUser.objects.all().explain(),
            ConfUser.objects.all().explain("count"),
            ConfUser.objects.all().explain("aggregate", field="jid", function="MAX"),
        ]
    reports.append(ConfPaper.objects.all().explain("count"))
    assert [report["plan"] for report in reports[1:]] == ["grouped-aggregate"] * 3
    for report in reports:
        assert detail <= report.keys()
