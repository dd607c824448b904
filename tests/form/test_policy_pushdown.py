"""Policy pushdown: Early Pruning compiled into the SQL statement.

On a model whose one policy group compiles to an inline predicate, a
viewer-context ``fetch()``, ``count()`` or ``aggregate()`` renders that
predicate into the WHERE clause and the database prunes -- one statement
on both backends.  Every other policied read takes the Python path, which
doubles as the oracle throughout (``form.policy_pushdown_enabled =
False``), and is counted under its reason: an opaque profile, a predicate
that does not bind for the viewer, or facet rows the branch test cannot
read.  Bounded sets take the Python path too.  A pushed read skips the
facet bookkeeping: it registers no label, and its instances equal the
Python path's field for field.
"""

import pytest

from repro import obs
from repro.core.labels import Label
from repro.db import Database, SqliteBackend, StatementLog
from repro.form import (
    FORM,
    CharField,
    QuerySet,
    ForeignKey,
    IntegerField,
    JModel,
    jacqueline,
    label_for,
    use_form,
    viewer_context,
)
from repro.form.pushdown import profile_for


class Owner(JModel):
    name = CharField(max_length=64)


class Doc(JModel):
    """A policy reading only its own row and the viewer: renders inline."""

    owner = ForeignKey(Owner)
    title = CharField(max_length=128)
    score = IntegerField(default=0)

    @staticmethod
    def jacqueline_get_public_title(doc):
        return "[secret]"

    @staticmethod
    @label_for("title")
    @jacqueline
    def jacqueline_restrict_title(doc, ctxt):
        return ctxt is not None and doc.owner_id == ctxt.jid


class Audit(JModel):
    """A policy that queries another model: TOP in the predicate, so the
    Python path prunes."""

    owner = ForeignKey(Owner)
    body = CharField(max_length=64)

    @staticmethod
    def jacqueline_get_public_body(audit):
        return "[redacted]"

    @staticmethod
    @label_for("body")
    @jacqueline
    def jacqueline_restrict_body(audit, ctxt):
        owner = Owner.objects.get(jid=audit.owner_id)
        return owner is not None and ctxt is not None and owner.jid == ctxt.jid


class Vault(JModel):
    """A policy body the symbolic compiler cannot model: opaque."""

    body = CharField(max_length=64)

    @staticmethod
    def jacqueline_get_public_body(vault):
        return "[vault]"

    @staticmethod
    @label_for("body")
    @jacqueline
    def jacqueline_restrict_body(vault, ctxt):
        granted = False
        for _letter in getattr(ctxt, "name", "") or "":
            granted = not granted
        return granted


class Wiki(JModel):
    """Prefix-on-viewer policy over a non-nullable column: an inline
    predicate with a range atom, servable from SQLite's B-tree index."""

    path = CharField(max_length=64, nullable=False, default="/")
    body = CharField(max_length=64)

    @staticmethod
    def jacqueline_get_public_body(page):
        return "[wiki]"

    @staticmethod
    @label_for("body")
    @jacqueline
    def jacqueline_restrict_body(page, ctxt):
        return ctxt is not None and page.path.startswith(ctxt.name)


class Badge(JModel):
    """Inline policy whose bound value can mismatch the column kind (int
    column vs. text viewer attribute): binding fails at run time and the
    read takes the Python path."""

    code = IntegerField(default=0)
    body = CharField(max_length=64)

    @staticmethod
    def jacqueline_get_public_body(badge):
        return "[badge]"

    @staticmethod
    @label_for("body")
    @jacqueline
    def jacqueline_restrict_body(badge, ctxt):
        return badge.code == getattr(ctxt, "name", None)


class Gate(JModel):
    """Viewer-only policy: the predicate folds to a boolean when it binds,
    evaluating the comparison with Python semantics."""

    body = CharField(max_length=64)

    @staticmethod
    def jacqueline_get_public_body(gate):
        return "[closed]"

    @staticmethod
    @label_for("body")
    @jacqueline
    def jacqueline_restrict_body(gate, ctxt):
        return ctxt is not None and ctxt.name > "m"


class Ledger(JModel):
    """An inline policy whose lookup reads :class:`LedgerShare`, a model
    the FORM reading ledgers does not register."""

    owner = ForeignKey(Owner)
    body = CharField(max_length=64)

    @staticmethod
    def jacqueline_get_public_body(entry):
        return "[ledger]"

    @staticmethod
    @label_for("body")
    @jacqueline
    def jacqueline_restrict_body(entry, ctxt):
        if ctxt is None:
            return False
        if entry.owner_id == ctxt.jid:
            return True
        return LedgerShare.objects.get(ledger=entry, reader=ctxt) is not None


class LedgerShare(JModel):
    ledger = ForeignKey(Ledger)
    reader = ForeignKey(Owner)


MODELS = [Owner, Doc, Audit, Vault, Wiki, Badge, Gate]


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def _make_form(kind):
    database = Database() if kind == "memory" else Database(SqliteBackend())
    form = FORM(database)
    form.register_all(MODELS)
    return form, database


@pytest.fixture(params=["memory", "sqlite"])
def pushdown_form(request):
    form, database = _make_form(request.param)
    with use_form(form):
        yield form
    database.close()


def _seed_docs(form):
    ada = Owner.objects.create(name="ada")
    bob = Owner.objects.create(name="bob")
    for index in range(4):
        Doc.objects.create(
            owner=ada if index % 2 else bob, title=f"t{index}", score=index
        )
    return ada, bob


def _oracle(form, run):
    """Run ``run`` on the Python pruning path (the differential oracle)."""
    form.policy_pushdown_enabled = False
    try:
        return run()
    finally:
        form.policy_pushdown_enabled = True


def test_profiles_classify_the_three_shapes():
    assert profile_for(Doc).tier == "inline"
    assert profile_for(Vault).tier == "opaque"
    assert profile_for(Owner).tier == "none"  # no policy groups at all


def test_profiles_report_the_symbolic_tier():
    for model in (Doc, Wiki, Badge, Gate):
        assert profile_for(model).tier == "inline", model.__name__
        assert profile_for(model).predicates is not None, model.__name__
    assert profile_for(Audit).tier == "opaque"  # ORM query in the body: TOP
    assert profile_for(Audit).predicates is None


def test_fetch_is_one_statement_with_parity(pushdown_form):
    ada, _bob = _seed_docs(pushdown_form)
    with obs.tracing(), viewer_context(ada):
        Doc.objects.all().fetch()  # warm the one-time branch-key probe
        with pushdown_form.database.observe_statements() as log:
            docs = Doc.objects.all().fetch()
        # The predicate renders inline: one statement whose branch tests
        # match each record's facet rows.
        assert len(log.statements) == 1
        assert "jvars = (? || jid || ?)" in log.statements[0]
        titles = sorted(doc.title for doc in docs)
        oracle = _oracle(
            pushdown_form,
            lambda: sorted(doc.title for doc in Doc.objects.all().fetch()),
        )
    assert obs.totals.get("plan.policy_pushdown") >= 1
    assert titles == oracle
    assert titles == ["[secret]", "[secret]", "t1", "t3"]


def test_join_with_an_unpolicied_table_is_one_statement_with_parity(pushdown_form):
    ada, _bob = _seed_docs(pushdown_form)
    query = lambda: sorted(  # noqa: E731
        doc.title for doc in Doc.objects.filter(owner__name="ada").fetch()
    )
    with obs.tracing(), viewer_context(ada):
        query()  # warm the one-time branch-key probes
        with pushdown_form.database.observe_statements() as log:
            titles = query()
        # The unpolicied joined table holds no facet rows: its conjunct
        # keeps only unfaceted rows.
        assert len(log.statements) == 1
        assert "Owner.jvars = ?" in log.statements[0]
        oracle = _oracle(pushdown_form, query)
    assert obs.totals.get("plan.policy_pushdown") >= 1
    assert titles == oracle == ["t1", "t3"]


def test_indexable_tier_compiles_prefix_policies_to_ranges(pushdown_form):
    """Prefix and range atoms render inline, servable from a B-tree index."""
    ada, _bob = _seed_docs(pushdown_form)
    Wiki.objects.create(path="ada/notes", body="ada's notes")
    Wiki.objects.create(path="bob/notes", body="bob's notes")
    with obs.tracing(), viewer_context(ada):
        Wiki.objects.all().fetch()  # warm the one-time branch-key probe
        with pushdown_form.database.observe_statements() as log:
            pages = Wiki.objects.all().order_by("path").fetch()
        assert len(log.statements) == 1
        bodies = [page.body for page in pages]
        oracle = _oracle(
            pushdown_form,
            lambda: [
                page.body
                for page in Wiki.objects.all().order_by("path").fetch()
            ],
        )
    assert obs.totals.get("plan.policy_pushdown") >= 1
    assert bodies == oracle
    assert bodies == ["ada's notes", "[wiki]"]


def _fallback_counts():
    return {
        reason: obs.totals.get(f"plan.policy_pushdown.fallback.{reason}")
        for reason in ("bind", "facet_rows")
    }


def _run_counted(form, run):
    """``run()`` with pushdown on, checked against the Python path, plus
    the fallback counters and pushed reads it bumped."""
    obs.reset()
    with obs.tracing():
        answer = run()
    counts = _fallback_counts()
    counts["pushed"] = obs.totals.get("plan.policy_pushdown")
    assert answer == _oracle(form, run)
    return answer, counts


def test_runtime_fallbacks_are_counted_with_a_reason(pushdown_form):
    ada, _bob = _seed_docs(pushdown_form)
    nameless = Owner.objects.create(name=None)
    Badge.objects.create(code=7, body="lucky")
    Gate.objects.create(body="open")
    badges = lambda: [badge.body for badge in Badge.objects.all().fetch()]  # noqa: E731
    docs = lambda: sorted(doc.title for doc in Doc.objects.all().fetch())  # noqa: E731
    gates = lambda: [gate.body for gate in Gate.objects.all().fetch()]  # noqa: E731

    with viewer_context(ada):
        # The bound value ("ada", text) cannot probe the int column soundly.
        answer, counts = _run_counted(pushdown_form, badges)
        assert answer == ["[badge]"]
        assert counts == {"bind": 1, "facet_rows": 0, "pushed": 0}
        # A pc-labelled facet row is no canonical branch of Doc's group.
        _guard_doc(pushdown_form, ada)
        answer, counts = _run_counted(pushdown_form, docs)
        assert answer == ["[secret]", "[secret]", "guarded", "t1", "t3"]
        assert counts == {"bind": 0, "facet_rows": 1, "pushed": 0}
        # The viewer-only comparison folds at bind time.
        answer, counts = _run_counted(pushdown_form, gates)
        assert answer == ["[closed]"]
        assert counts == {"bind": 0, "facet_rows": 0, "pushed": 1}
    # The same comparison raises for a viewer without a name: the fold
    # falls back, and the Python path raises exactly as the oracle does.
    with viewer_context(nameless):
        obs.reset()
        with obs.tracing(), pytest.raises(TypeError):
            gates()
        assert _fallback_counts() == {"bind": 1, "facet_rows": 0}
        with pytest.raises(TypeError):
            _oracle(pushdown_form, gates)


def test_count_and_exists_are_one_statement_with_parity(pushdown_form):
    ada, _bob = _seed_docs(pushdown_form)
    with viewer_context(ada):
        Doc.objects.all().count()  # warm the one-time branch-key probe
        with pushdown_form.database.observe_statements() as log:
            count = Doc.objects.all().count()
        assert len(log.statements) == 1
        assert count == _oracle(pushdown_form, Doc.objects.all().count)
        assert count == 4  # every record stays visible; titles facet instead
        assert Doc.objects.filter(score=2).exists() is True
        assert Doc.objects.filter(score=9).exists() is False


def test_aggregates_are_one_statement_with_parity(pushdown_form):
    ada, _bob = _seed_docs(pushdown_form)
    with viewer_context(ada):
        Doc.objects.all().avg("score")  # warm
        with pushdown_form.database.observe_statements() as log:
            average = Doc.objects.all().avg("score")
        assert len(log.statements) == 1
        for function in ("sum", "min", "max", "avg"):
            query_set = Doc.objects.all()
            assert getattr(query_set, function)("score") == _oracle(
                pushdown_form, lambda: getattr(Doc.objects.all(), function)("score")
            )
    assert average == 1.5


def test_update_is_one_statement_in_a_viewer_context(pushdown_form):
    ada, _bob = _seed_docs(pushdown_form)
    with viewer_context(ada):
        with pushdown_form.database.observe_statements() as log:
            changed = Doc.objects.filter(score=0).update(score=10)
        assert changed >= 1
        assert len(log.statements) == 1
        assert log.statements[0].startswith('UPDATE "Doc"')


def test_explain_sql_string_equals_the_executed_statement(pushdown_form):
    ada, _bob = _seed_docs(pushdown_form)
    with viewer_context(ada):
        Doc.objects.all().fetch()  # warm
        report = Doc.objects.all().explain()
        assert report["mode"] == "policy-pushdown"
        with pushdown_form.database.observe_statements() as log:
            Doc.objects.all().fetch()
        assert log.statements == [report["sql"]]
        report = Doc.objects.all().explain("count")
        assert report["mode"] == "policy-pushdown"
        with pushdown_form.database.observe_statements() as log:
            Doc.objects.all().count()
        assert log.statements == [report["sql"]]


def test_explain_reports_the_mode_per_model(pushdown_form):
    ada, _bob = _seed_docs(pushdown_form)
    Wiki.objects.create(path="ada/notes", body="n")
    Badge.objects.create(code=7, body="lucky")
    with viewer_context(ada):
        report = Wiki.objects.all().explain()
        assert report["mode"] == "policy-pushdown"
        with pushdown_form.database.observe_statements() as log:
            Wiki.objects.all().fetch()
        assert log.statements[-1:] == [report["sql"]]
        # Opaque, and an inline predicate that does not bind for ada.
        assert Audit.objects.all().explain()["mode"] == "pruned"
        assert Badge.objects.all().explain()["mode"] == "pruned"


def test_explain_executes_no_statements(pushdown_form):
    ada, _bob = _seed_docs(pushdown_form)
    with viewer_context(ada):
        with pushdown_form.database.observe_statements() as log:
            Doc.objects.all().explain()
            Doc.objects.all().explain("count")
        assert log.statements == []


def test_opaque_policy_falls_back_and_is_counted(pushdown_form):
    ada, _bob = _seed_docs(pushdown_form)
    Vault.objects.create(body="launch codes")
    with obs.tracing(), viewer_context(ada):
        vaults = Vault.objects.all().fetch()
    assert obs.totals.get("plan.policy_pushdown") == 0
    assert obs.totals.get("plan.policy_pushdown.opaque_fallback") >= 1
    # name "ada" has odd length: the opaque policy grants access.
    assert [vault.body for vault in vaults] == ["launch codes"]


def test_disabled_flag_forces_the_python_path(pushdown_form):
    ada, _bob = _seed_docs(pushdown_form)
    pushdown_form.policy_pushdown_enabled = False
    with obs.tracing(), viewer_context(ada):
        titles = sorted(doc.title for doc in Doc.objects.all().fetch())
        assert Doc.objects.all().explain()["mode"] == "pruned"
    assert obs.totals.get("plan.policy_pushdown") == 0
    assert titles == ["[secret]", "[secret]", "t1", "t3"]


def test_bounded_sets_and_first_stay_on_the_python_path(pushdown_form):
    ada, _bob = _seed_docs(pushdown_form)
    with obs.tracing(), viewer_context(ada):
        bounded = Doc.objects.all().order_by("score").limited(2).fetch()
        assert len(bounded) == 2
        first = Doc.objects.all().order_by("-score").first()
        assert first is not None and first.score == 3
    assert obs.totals.get("plan.policy_pushdown") == 0


def test_own_table_write_invalidates_a_narrow_store(pushdown_form):
    """A write to the policied table shows on the next pruned read."""
    ada, _bob = _seed_docs(pushdown_form)
    with viewer_context(ada):
        before = sorted(doc.title for doc in Doc.objects.all().fetch())
        Doc.objects.create(owner=ada, title="t9", score=9)
        after = sorted(doc.title for doc in Doc.objects.all().fetch())
    assert "t9" not in before and "t9" in after


def test_pc_labelled_rows_force_the_python_fallback(pushdown_form):
    ada, _bob = _seed_docs(pushdown_form)
    label = Label(hint="branch")
    pushdown_form.runtime.policy_env.declare(label)
    pushdown_form.runtime.policy_env.restrict(
        label, lambda viewer: getattr(viewer, "name", None) == "ada"
    )
    with pushdown_form.runtime.under_branch(label, True):
        Doc.objects.create(owner=ada, title="guarded", score=7)
    with obs.tracing(), viewer_context(ada):
        titles = sorted(doc.title for doc in Doc.objects.all().fetch())
        oracle = _oracle(
            pushdown_form,
            lambda: sorted(doc.title for doc in Doc.objects.all().fetch()),
        )
    # The pc-labelled facet row is not a canonical branch of Doc's policy
    # group: the Python path prunes, and the two paths agree bit for bit.
    assert obs.totals.get("plan.policy_pushdown") == 0
    assert obs.totals.get("plan.policy_pushdown.fallback.facet_rows") >= 1
    assert titles == oracle
    assert "guarded" in titles


def test_no_cross_viewer_leak_with_caches_enabled():
    form, database = _make_form("sqlite")
    with use_form(form):
        ada, bob = _seed_docs(form)
        for _round in range(2):  # each viewer reads after the other
            with viewer_context(ada):
                ada_titles = sorted(d.title for d in Doc.objects.all().fetch())
            with viewer_context(bob):
                bob_titles = sorted(d.title for d in Doc.objects.all().fetch())
            assert ada_titles == ["[secret]", "[secret]", "t1", "t3"]
            assert bob_titles == ["[secret]", "[secret]", "t0", "t2"]
    database.close()


# -- pushed reads skip facet bookkeeping -------------------------------------------


def _field_values(instances):
    """Every instance's jid and column values, in a stable order."""
    columns = ["jid"] + [field.column_name for field in Doc._meta.fields.values()]
    return sorted(tuple(doc.__dict__[column] for column in columns) for doc in instances)


def test_pushed_fetch_registers_no_labels(pushdown_form):
    ada, _bob = _seed_docs(pushdown_form)
    with obs.tracing(), viewer_context(ada):
        Doc.objects.all().fetch()
    assert obs.totals.get("plan.policy_pushdown") == 1
    assert len(pushdown_form.runtime.policy_env) == 0


def test_pushed_fetch_returns_the_python_paths_instances(pushdown_form):
    ada, bob = _seed_docs(pushdown_form)
    for viewer in (ada, bob):
        with obs.tracing(), viewer_context(viewer):
            pushed = Doc.objects.all().fetch()
            python = _oracle(pushdown_form, lambda: Doc.objects.all().fetch())
        assert _field_values(pushed) == _field_values(python)
    assert obs.totals.get("plan.policy_pushdown") == 2


def test_a_no_viewer_read_after_a_pushed_read_concretizes_for_every_viewer(pushdown_form):
    ada, bob = _seed_docs(pushdown_form)
    with viewer_context(ada):
        Doc.objects.all().fetch()  # pushed
    faceted = Doc.objects.all().fetch()
    expected = {
        ada: ["[secret]", "[secret]", "t1", "t3"],
        bob: ["[secret]", "[secret]", "t0", "t2"],
        None: ["[secret]"] * 4,
    }
    for viewer, titles in expected.items():
        docs = pushdown_form.runtime.concretize(faceted, viewer)
        assert sorted(doc.title for doc in docs) == titles


# -- one decision per read -----------------------------------------------------------


def _branch_label(form, name=None):
    """Declare a pc label whose policy shows its branch to "ada" only."""
    label = Label(hint="branch", name=name)
    form.runtime.policy_env.declare(label)
    form.runtime.policy_env.restrict(
        label, lambda viewer: getattr(viewer, "name", None) == "ada"
    )
    return label


@pytest.mark.parametrize("kind", ["memory", "sqlite"])
def test_a_lookup_on_an_unregistered_model_demotes_the_read(kind):
    database = Database() if kind == "memory" else Database(SqliteBackend())
    form = FORM(database)
    form.register_all([Owner, Ledger])
    # Another FORM on the same database creates the table, which holds no
    # facet rows: only the registration check keeps the read in Python.
    FORM(database).register(LedgerShare)
    assert database.facet_branch_keys("LedgerShare") == frozenset()
    assert profile_for(Ledger).lookups == {"LedgerShare"}
    try:
        with use_form(form):
            ada = Owner.objects.create(name="ada")
            bob = Owner.objects.create(name="bob")
            Ledger.objects.create(owner=ada, body="a0")
            Ledger.objects.create(owner=ada, body="a1")
            fetch = lambda: sorted(entry.body for entry in Ledger.objects.all().fetch())  # noqa: E731
            with viewer_context(ada):
                report = Ledger.objects.all().explain()
                with obs.tracing():
                    bodies = fetch()
                oracle = _oracle(form, fetch)
            # Ada owns every entry, so no policy run reaches the lookup.
            assert bodies == oracle == ["a0", "a1"]
            # Bob's policy runs reach it, and the FORM refuses the read of
            # the unregistered table on both paths alike.
            with viewer_context(bob):
                with pytest.raises(LookupError, match="LedgerShare"):
                    fetch()
                with pytest.raises(LookupError, match="LedgerShare"):
                    _oracle(form, fetch)
    finally:
        database.close()
    assert report["mode"] == "pruned"
    assert report["fallback"] == "plan.policy_pushdown.fallback.facet_rows"
    assert obs.totals.get("plan.policy_pushdown") == 0
    assert obs.totals.get("plan.policy_pushdown.fallback.facet_rows") == 1


def _guard_doc(form, owner):
    """Create one Doc under a path condition, so Doc holds a pc-labelled
    facet row; returns the label's name."""
    label = _branch_label(form)
    with form.runtime.under_branch(label, True):
        Doc.objects.create(owner=owner, title="guarded", score=7)
    return label.name


@pytest.mark.parametrize("operation", ["fetch", "count"])
def test_explain_reports_what_runs_over_pc_labelled_rows(pushdown_form, operation):
    ada, _bob = _seed_docs(pushdown_form)
    _guard_doc(pushdown_form, ada)
    with viewer_context(ada):
        report = Doc.objects.all().explain(operation)
        with obs.tracing(), pushdown_form.database.observe_statements() as log:
            getattr(Doc.objects.all(), operation)()
    # Doc's facet rows are not all canonical: the read prunes in Python,
    # and explain() says so, with the statement the read runs.
    assert report["mode"] == "pruned"
    assert report["sql"] in log.statements
    assert obs.totals.get("plan.policy_pushdown") == 0
    assert obs.totals.get("plan.policy_pushdown.fallback.facet_rows") == 1


@pytest.mark.parametrize(
    "reason, model, field",
    [
        ("opaque_fallback", Vault, "body"),
        ("fallback.bind", Badge, "code"),
        ("fallback.facet_rows", Doc, "score"),
    ],
)
def test_each_count_exists_and_aggregate_counts_its_fallback_once(
    pushdown_form, reason, model, field
):
    ada, _bob = _seed_docs(pushdown_form)
    Vault.objects.create(body="launch codes")
    Badge.objects.create(code=7, body="lucky")
    _guard_doc(pushdown_form, ada)
    reads = [QuerySet.count, QuerySet.exists, lambda qs: qs.aggregate(field, "MAX")]
    with viewer_context(ada):
        for read in reads:
            obs.reset()
            with obs.tracing():
                read(model.objects.all())
            assert obs.totals.get(f"plan.policy_pushdown.{reason}") == 1, read


@pytest.mark.parametrize("guarded", [False, True], ids=["canonical", "pc-labelled"])
def test_an_adopted_sqlite_file_knows_its_facet_state(tmp_path, guarded):
    path = str(tmp_path / "docs.sqlite")
    database = Database(SqliteBackend(path))
    form = FORM(database)
    form.register_all(MODELS)
    with use_form(form):
        ada, _bob = _seed_docs(form)
        label = _guard_doc(form, ada) if guarded else None
    database.close()
    # Reopening adopts the file's tables and their rows.
    database = Database(SqliteBackend(path))
    form = FORM(database)
    form.register_all(MODELS)
    try:
        if guarded:
            _branch_label(form, name=label)
        assert database.may_have_facets("Doc") is True
        assert database.may_have_facets("Owner") is False
        assert database.facet_branch_keys("Owner") == frozenset()
        expected_keys = None if guarded else frozenset({"title"})
        assert database.facet_branch_keys("Doc") == expected_keys
        query = lambda: sorted(doc.title for doc in Doc.objects.all().fetch())  # noqa: E731
        with use_form(form):
            ada = Owner.objects.get(name="ada")
            with viewer_context(ada):
                mode = Doc.objects.all().explain()["mode"]
                with obs.tracing(), database.observe_statements() as log:
                    titles = query()
                oracle = _oracle(form, query)
        pushed = not guarded
        assert mode == ("policy-pushdown" if pushed else "pruned")
        assert obs.totals.get("plan.policy_pushdown") == int(pushed)
        assert len(log.statements) == 1  # no probe statement, either way
        assert titles == oracle
        expected = ["[secret]", "[secret]", "t1", "t3"] + (["guarded"] if guarded else [])
        assert titles == sorted(expected)
    finally:
        database.close()
