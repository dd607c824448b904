"""Set-oriented FORM writes: ``QuerySet.update()``/``delete()`` and bulk saves.

The satellite test matrix of the write-API redesign: fast-path single
statements (asserted on captured SQL), pc-guarded bulk update/delete
(complement rows survive), policy non-leakage through ``update()`` on
policied models, writes on bounded query sets, memory/SQLite backend
parity, and cache invalidation after bulk writes.
"""

import pytest

from repro.core.facets import Facet
from repro.core.labels import Label
from repro.db import Database, MemoryBackend, SqliteBackend, StatementLog
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


def _make_form(kind):
    database = Database() if kind == "memory" else Database(SqliteBackend())
    form = FORM(database)
    form.register_all([Author, Paper])
    return form, database


@pytest.fixture(params=["memory", "sqlite"])
def paper_form(request):
    form, database = _make_form(request.param)
    with use_form(form):
        yield form
    if request.param == "sqlite":
        database.close()


def _seed(count=3, author_name="ada"):
    author = Author.objects.create(name=author_name)
    papers = [
        Paper.objects.create(author=author, title=f"t{i}", score=i)
        for i in range(count)
    ]
    return author, papers


# -- fast path --------------------------------------------------------------------------


def test_update_covers_every_facet_row_of_matching_records(paper_form):
    author, _papers = _seed()
    changed = Paper.objects.filter(author=author).update(status="accepted")
    assert changed == 6  # 3 records x 2 facet rows
    rows = paper_form.database.rows("Paper")
    assert all(row["status"] == "accepted" for row in rows)
    # The policied title facets are untouched, bit for bit.
    assert sorted(row["title"] for row in rows) == sorted(
        ["t0", "t1", "t2"] + ["[anonymous]"] * 3
    )


def test_update_matching_a_single_facet_row_updates_the_whole_record(paper_form):
    author, papers = _seed()
    # "t1" only matches the secret facet row; the write must still cover
    # the public row, or the record's status would become faceted.
    changed = Paper.objects.filter(title="t1").update(status="accepted")
    assert changed == 2
    statuses = {row["jvars"]: row["status"] for row in paper_form.database.find("Paper", jid=papers[1].jid)}
    assert set(statuses.values()) == {"accepted"}


def test_fast_path_is_one_statement_on_sqlite():
    backend = SqliteBackend()
    form = FORM(Database(backend))
    form.register_all([Author, Paper])
    with use_form(form), StatementLog(backend) as log:
        author, _papers = _seed()
        log.clear()
        Paper.objects.filter(author=author).update(status="accepted")
        assert len(log.statements) == 1
        assert log.statements[0].startswith('UPDATE "Paper" SET "status" = ?')
        assert 'jid IN (SELECT DISTINCT "jid" FROM "Paper"' in log.statements[0]
        log.clear()
        Paper.objects.filter(status="accepted").delete()
        assert log.statements == [
            'DELETE FROM "Paper" WHERE jid IN '
            '(SELECT DISTINCT "jid" FROM "Paper" WHERE status = ?)'
        ]


def test_delete_removes_whole_records(paper_form):
    _author, papers = _seed()
    deleted = Paper.objects.filter(title="t0").delete()
    assert deleted == 2
    assert paper_form.database.find("Paper", jid=papers[0].jid) == []
    assert len(paper_form.database.rows("Paper")) == 4


def test_update_unknown_field_raises(paper_form):
    _seed(1)
    with pytest.raises(ValueError):
        Paper.objects.all().update(nope=1)


def test_update_id_spelling_only_resolves_foreign_keys(paper_form):
    author, papers = _seed(1)
    other = Author.objects.create(name="bob")
    # The fk's raw column spelling works...
    Paper.objects.all().update(author_id=other.jid)
    assert {row["author_id"] for row in paper_form.database.rows("Paper")} == {other.jid}
    # ...but "<field>_id" on a non-fk field is a typo, not a resolution.
    with pytest.raises(ValueError):
        Paper.objects.all().update(score_id=0)
    assert {row["score"] for row in paper_form.database.find("Paper", jid=papers[0].jid)} == {0}


def test_empty_update_is_a_no_op(paper_form):
    _seed(1)
    assert Paper.objects.all().update() == 0


# -- bounded query sets -----------------------------------------------------------------


def test_update_on_bounded_queryset_hits_first_records_only(paper_form):
    author, papers = _seed(4)
    changed = (
        Paper.objects.filter(author=author)
        .order_by("score")
        .limited(2)
        .update(status="accepted")
    )
    assert changed == 4  # 2 records x 2 facet rows
    for paper, expected in zip(papers, ["accepted", "accepted", "submitted", "submitted"]):
        statuses = {
            row["status"] for row in paper_form.database.find("Paper", jid=paper.jid)
        }
        assert statuses == {expected}


def test_delete_on_bounded_queryset_counts_records_not_rows(paper_form):
    _author, papers = _seed(4)
    deleted = Paper.objects.all().order_by("-score").limited(1).delete()
    assert deleted == 2  # one record, both facet rows
    assert paper_form.database.find("Paper", jid=papers[3].jid) == []
    assert len(paper_form.database.rows("Paper")) == 6


# -- policied fields: the batched facet rewrite ----------------------------------------


def test_policied_update_recomputes_public_facets(paper_form):
    author, papers = _seed()
    changed = Paper.objects.filter(author=author).update(title="CAMERA READY")
    assert changed == 6
    for paper in papers:
        by_jvars = {
            row["jvars"]: row["title"]
            for row in paper_form.database.find("Paper", jid=paper.jid)
        }
        assert by_jvars[f"Paper.{paper.jid}.title=True"] == "CAMERA READY"
        # The secret value never leaks into the public facet row.
        assert by_jvars[f"Paper.{paper.jid}.title=False"] == "[anonymous]"


def test_policied_update_does_not_leak_to_other_viewers(paper_form):
    author, _papers = _seed()
    eve = Author.objects.create(name="eve")
    Paper.objects.filter(author=author).update(title="CAMERA READY")
    with viewer_context(eve):
        titles = {paper.title for paper in Paper.objects.all().fetch()}
    assert titles == {"[anonymous]"}
    with viewer_context(author):
        titles = {paper.title for paper in Paper.objects.all().fetch()}
    assert titles == {"CAMERA READY"}


def test_policied_update_is_batched_not_per_record():
    backend = SqliteBackend()
    form = FORM(Database(backend))
    form.register_all([Author, Paper])
    with use_form(form), StatementLog(backend) as log:
        author, _papers = _seed(5)
        bus = form.database.invalidation
        events = bus.events_published
        log.clear()
        Paper.objects.filter(author=author).update(title="X")
        # One projected jid query + one row fetch; the rewrite itself is a
        # replace_rows batch (one REPLACE summary event, not per-row
        # statements).
        selects = [s for s in log.statements if s.startswith("SELECT")]
        assert len(selects) == 2
        assert selects[0].startswith('SELECT DISTINCT "jid"')
        assert [e.kind for e in log.events if e.kind == "REPLACE"] == ["REPLACE"]
        # one invalidation event for the batch
        assert bus.events_published == events + 1


def test_batched_update_preserves_value_facets_on_other_columns(paper_form):
    """A faceted value stored on an *unassigned* column must survive a
    policied-column rewrite -- not collapse to its secret projection."""
    author, _papers = _seed(0)
    label = Label(hint="k")
    paper_form.runtime.policy_env.declare(label)
    paper_form.runtime.policy_env.restrict(
        label, lambda viewer: getattr(viewer, "name", None) == "ada"
    )
    paper = Paper(author=author, title="t", status=Facet(label, "vip", "standard"))
    paper.save()
    Paper.objects.filter(jid=paper.jid).update(title="NEW")  # policied: fallback
    rows = paper_form.database.find("Paper", jid=paper.jid)
    statuses = {
        (f"{label.name}=True" in row["jvars"], f"{label.name}=False" in row["jvars"]):
        row["status"]
        for row in rows
    }
    assert statuses.get((True, False)) == "vip"
    assert statuses.get((False, True)) == "standard", (
        "the k=False facet collapsed: its value leaked from the secret side"
    )
    titles = {row["jvars"]: row["title"] for row in rows}
    assert all(
        title == ("NEW" if f"Paper.{paper.jid}.title=True" in jvars else "[anonymous]")
        for jvars, title in titles.items()
    )


def test_batched_update_of_the_faceted_column_replaces_its_facets(paper_form):
    author, _papers = _seed(0)
    label = Label(hint="k")
    paper_form.runtime.policy_env.declare(label)
    paper_form.runtime.policy_env.restrict(label, lambda viewer: True)
    paper = Paper(author=author, title="t", status=Facet(label, "vip", "standard"))
    paper.save()
    Paper.objects.filter(jid=paper.jid).update(status="done", title="T2")
    rows = paper_form.database.find("Paper", jid=paper.jid)
    assert {row["status"] for row in rows} == {"done"}
    assert all(label.name not in row["jvars"] for row in rows)


def test_faceted_value_update_falls_back(paper_form):
    author, papers = _seed(1)
    label = Label(hint="k")
    paper_form.runtime.policy_env.declare(label)
    paper_form.runtime.policy_env.restrict(label, lambda viewer: True)
    faceted_score = Facet(label, 100, 1)
    Paper.objects.filter(author=author).update(score=faceted_score)
    rows = paper_form.database.find("Paper", jid=papers[0].jid)
    scores = {row["jvars"]: row["score"] for row in rows}
    assert any("=True" in jvars and score == 100 for jvars, score in scores.items())
    assert any("=False" in jvars and score == 1 for jvars, score in scores.items())


# -- pc-guarded writes ------------------------------------------------------------------


def _guard_label(form, allowed="alice"):
    label = Label(hint="branch")
    form.runtime.policy_env.declare(label)
    form.runtime.policy_env.restrict(
        label, lambda viewer: getattr(viewer, "name", None) == allowed
    )
    return label


def test_pc_guarded_bulk_update_keeps_complement_rows(paper_form):
    author, papers = _seed(2)
    label = _guard_label(paper_form)
    with paper_form.runtime.under_branch(label, True):
        Paper.objects.all().update(status="accepted")
    for paper in papers:
        rows = paper_form.database.find("Paper", jid=paper.jid)
        in_branch = [r for r in rows if f"{label.name}=True" in r["jvars"]]
        out_of_branch = [r for r in rows if f"{label.name}=False" in r["jvars"]]
        assert in_branch and all(r["status"] == "accepted" for r in in_branch)
        assert out_of_branch and all(r["status"] == "submitted" for r in out_of_branch)


def test_pc_guarded_bulk_delete_keeps_complement_rows(paper_form):
    _author, papers = _seed(2)
    label = _guard_label(paper_form)
    with paper_form.runtime.under_branch(label, True):
        Paper.objects.all().delete()
    for paper in papers:
        rows = paper_form.database.find("Paper", jid=paper.jid)
        assert rows, "complement rows must survive a guarded delete"
        assert all(f"{label.name}=False" in row["jvars"] for row in rows)


def test_jmodel_delete_clears_jid_and_does_not_resurrect(paper_form):
    author, _papers = _seed(1)
    paper = Paper.objects.create(author=author, title="bye")
    old_jid = paper.jid
    paper.delete()
    assert paper.jid is None
    assert paper_form.database.find("Paper", jid=old_jid) == []
    # A later save creates a *new* record instead of resurrecting the jid.
    paper.title = "back"
    paper.save()
    assert paper.jid is not None and paper.jid != old_jid


def test_jmodel_guarded_delete_keeps_jid_and_complement_rows(paper_form):
    author, _papers = _seed(1)
    paper = Paper.objects.create(author=author, title="maybe")
    label = _guard_label(paper_form)
    with paper_form.runtime.under_branch(label, True):
        paper.delete()
    assert paper.jid is not None  # still exists in the complement worlds
    rows = paper_form.database.find("Paper", jid=paper.jid)
    assert rows and all(f"{label.name}=False" in row["jvars"] for row in rows)


def test_guarded_delete_with_no_survivors_clears_jid(paper_form):
    """A record created *and* deleted inside the same branch is gone in
    every world; its stale jid must not resurrect it on a later save."""
    author, _papers = _seed(0)
    label = _guard_label(paper_form)
    with paper_form.runtime.under_branch(label, True):
        paper = Paper.objects.create(author=author, title="ephemeral")
        old_jid = paper.jid
        paper.delete()
    assert paper_form.database.find("Paper", jid=old_jid) == []
    assert paper.jid is None
    paper.save()
    assert paper.jid != old_jid


# -- statement counts -------------------------------------------------------------------
#
# Each FORM write is one planned statement or one facet rewrite, on both
# backends.  ``Paper`` has one policy group, so every record is two rows.


def _statement_kinds(form, write):
    with StatementLog(form.database.backend) as log:
        write()
    return [event.kind for event in log.events]


def test_create_under_a_pc_is_one_insert(paper_form):
    author, _papers = _seed(0)
    label = _guard_label(paper_form)
    created = []
    with paper_form.runtime.under_branch(label, True):
        kinds = _statement_kinds(
            paper_form,
            lambda: created.append(Paper.objects.create(author=author, title="t")),
        )
    assert kinds == ["INSERT"]
    rows = paper_form.database.find("Paper", jid=created[0].jid)
    assert len(rows) == 2
    assert all(f"{label.name}=True" in row["jvars"] for row in rows)


def test_bulk_create_under_a_pc_is_one_statement(paper_form):
    author, _papers = _seed(0)
    label = _guard_label(paper_form)
    fresh = [Paper(author=author, title=f"n{i}") for i in range(5)]
    with paper_form.runtime.under_branch(label, True):
        kinds = _statement_kinds(paper_form, lambda: Paper.objects.bulk_create(fresh))
    assert kinds == ["INSERT"]
    assert len(paper_form.database.rows("Paper")) == 10


def test_bulk_update_under_a_pc_is_one_fetch_and_one_replace(paper_form):
    _author, papers = _seed(5)
    label = _guard_label(paper_form)
    for paper in papers:
        paper.status = "accepted"
    with paper_form.runtime.under_branch(label, True):
        kinds = _statement_kinds(paper_form, lambda: Paper.objects.bulk_update(papers))
    assert kinds == ["SELECT", "REPLACE"]
    for paper in papers:
        statuses = {
            f"{label.name}=True" in row["jvars"]: row["status"]
            for row in paper_form.database.find("Paper", jid=paper.jid)
        }
        assert statuses == {True: "accepted", False: "submitted"}


def test_bulk_save_under_a_pc_runs_at_most_two_statements(paper_form):
    author, papers = _seed(3)
    label = _guard_label(paper_form)
    papers[0].status = "revised"
    fresh = [Paper(author=author, title=f"n{i}") for i in range(2)]
    with paper_form.runtime.under_branch(label, True):
        kinds = _statement_kinds(
            paper_form, lambda: Paper.objects.bulk_save(fresh + papers)
        )
    assert len(kinds) <= 2
    assert all(paper.jid is not None for paper in fresh)
    assert len(paper_form.database.rows("Paper")) == 2 * 2 + 3 * 4


def test_saving_a_stored_record_without_a_pc_is_one_statement(paper_form):
    _author, papers = _seed(1)
    papers[0].status = "revised"
    assert len(_statement_kinds(paper_form, papers[0].save)) == 1


def test_bulk_update_and_guarded_queryset_update_keep_their_counts(paper_form):
    _author, papers = _seed(5)
    for paper in papers:
        paper.score += 10
    assert len(_statement_kinds(paper_form, lambda: Paper.objects.bulk_update(papers))) == 1
    label = _guard_label(paper_form)
    with paper_form.runtime.under_branch(label, True):
        kinds = _statement_kinds(
            paper_form, lambda: Paper.objects.all().update(status="accepted")
        )
    assert kinds == ["SELECT", "SELECT", "REPLACE"]


def test_jmodel_delete_runs_one_statement_or_two_under_a_pc(paper_form):
    _author, papers = _seed(2)
    assert len(_statement_kinds(paper_form, papers[0].delete)) == 1
    label = _guard_label(paper_form)
    with paper_form.runtime.under_branch(label, True):
        assert len(_statement_kinds(paper_form, papers[1].delete)) == 2


# -- bulk_update / bulk_save ------------------------------------------------------------


def test_bulk_update_batches_heterogeneous_edits(paper_form):
    author, papers = _seed(3)
    with viewer_context(author):
        fetched = Paper.objects.all().order_by("score").fetch()
    for index, paper in enumerate(fetched):
        paper.score = 100 + index
        paper.status = f"round{index}"
    bus = paper_form.database.invalidation
    events = bus.events_published
    Paper.objects.bulk_update(fetched)
    # one batched write
    assert bus.events_published == events + 1
    with viewer_context(author):
        refreshed = Paper.objects.all().order_by("score").fetch()
    assert [p.score for p in refreshed] == [100, 101, 102]
    assert [p.status for p in refreshed] == ["round0", "round1", "round2"]


def test_bulk_update_rejects_unsaved_instances(paper_form):
    author, _papers = _seed(1)
    with pytest.raises(ValueError):
        Paper.objects.bulk_update([Paper(author=author, title="new")])


def test_bulk_update_last_instance_wins_on_duplicate_jids(paper_form):
    author, papers = _seed(1)
    with viewer_context(author):
        first = Paper.objects.get(jid=papers[0].jid)
        second = Paper.objects.get(jid=papers[0].jid)
    first.status = "first"
    second.status = "second"
    Paper.objects.bulk_update([first, second])
    statuses = {
        row["status"] for row in paper_form.database.find("Paper", jid=papers[0].jid)
    }
    assert statuses == {"second"}


def test_bulk_save_mixes_creates_and_updates(paper_form):
    author, papers = _seed(2)
    with viewer_context(author):
        existing = Paper.objects.all().order_by("score").fetch()
    existing[0].status = "revised"
    fresh = Paper(author=author, title="new paper", score=9)
    Paper.objects.bulk_save(existing + [fresh])
    assert fresh.jid is not None
    with viewer_context(author):
        assert Paper.objects.count() == 3
        assert Paper.objects.get(jid=existing[0].jid).status == "revised"
        assert Paper.objects.get(title="new paper").score == 9


def test_bulk_save_preserves_policied_facets(paper_form):
    author, _papers = _seed(1)
    with viewer_context(author):
        paper = Paper.objects.all().fetch()[0]
    paper.score = 42
    Paper.objects.bulk_save([paper])
    by_jvars = {
        row["jvars"]: row["title"]
        for row in paper_form.database.find("Paper", jid=paper.jid)
    }
    assert by_jvars[f"Paper.{paper.jid}.title=False"] == "[anonymous]"
    assert by_jvars[f"Paper.{paper.jid}.title=True"] == "t0"


# -- parity and caching -----------------------------------------------------------------


def test_backend_parity_for_bulk_writes():
    snapshots = []
    for kind in ("memory", "sqlite"):
        form, database = _make_form(kind)
        with use_form(form):
            author, _papers = _seed(4)
            Paper.objects.filter(author=author).order_by("score").limited(2).update(
                status="accepted"
            )
            Paper.objects.filter(title="t3").delete()
            Paper.objects.filter(author=author).update(title="FINAL")
            rows = sorted(
                (row["jid"], row["jvars"], row["title"], row["status"], row["score"])
                for row in database.rows("Paper")
            )
            snapshots.append(rows)
        if kind == "sqlite":
            database.close()
    assert snapshots[0] == snapshots[1]


def test_cached_reads_refresh_after_bulk_writes(paper_form):
    author, _papers = _seed()
    with viewer_context(author):
        before = Paper.objects.filter(status="submitted").fetch()
        assert len(before) == 3
    Paper.objects.filter(author=author).update(status="accepted")
    with viewer_context(author):
        assert Paper.objects.filter(status="submitted").fetch() == []
        assert len(Paper.objects.filter(status="accepted").fetch()) == 3
    Paper.objects.filter(status="accepted").delete()
    with viewer_context(author):
        assert Paper.objects.filter(status="accepted").fetch() == []
    assert Paper.objects.count() == 0


def test_count_cache_invalidated_by_set_oriented_delete(paper_form):
    _seed()
    assert Paper.objects.count() == 3
    Paper.objects.filter(title="t0").delete()
    assert Paper.objects.count() == 2
