"""FORM labels resolve through the FORM's registered models, in every path.

A FORM label ``Table.jid.group`` names one record's policy group.  Early
Pruning, policy pushdown and ``runtime.concretize`` must all decide it by
the policy of the model the FORM registered for ``Table``.  So a no-viewer
read, concretised for a viewer, equals the same read inside that viewer's
context (the ORM form of the Projection Theorem), whichever model's labels
the result carries: a joined model's, or another model's in a value facet.
"""

import pytest

from repro import obs
from repro.apps.conf.models import Paper, PaperPCConflict
from repro.apps.conf.seed import seed_conference
from repro.apps.conf.views import setup_conf
from repro.core.errors import PolicyError
from repro.core.facets import collect_labels, facet_map
from repro.core.labels import Label
from repro.core.policy import never_allow
from repro.db import Database, MemoryBackend, SqliteBackend
from repro.form import (
    FORM,
    CharField,
    ForeignKey,
    JModel,
    jacqueline,
    label_for,
    use_form,
    viewer_context,
)
from repro.form.model import ModelRegistry


class LabelUser(JModel):
    """An email is visible to the viewer of the same name (renders inline)."""

    name = CharField(max_length=64)
    email = CharField(max_length=64)

    @staticmethod
    def jacqueline_get_public_email(user):
        return "[hidden]"

    @staticmethod
    @label_for("email")
    @jacqueline
    def jacqueline_restrict_email(user, viewer):
        return viewer is not None and viewer.name == user.name


class LabelPaper(JModel):
    """Unpolicied: a joined read carries its author's labels only."""

    title = CharField(max_length=64)
    author = ForeignKey(LabelUser)


class LabelNote(JModel):
    """Unpolicied: a note's text may be a value facet on a user's label."""

    text = CharField(max_length=64)


MODELS = [LabelUser, LabelPaper, LabelNote]


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


@pytest.fixture(params=["memory", "sqlite"])
def form(request):
    database = Database(MemoryBackend() if request.param == "memory" else SqliteBackend())
    form = FORM(database)
    form.register_all(MODELS)
    with use_form(form):
        yield form
    database.close()


@pytest.fixture
def impostor():
    """A second model class named ``LabelUser``, whose policy shows every
    email to every viewer; the global model registry returns it until the
    test ends."""
    registered = ModelRegistry.get("LabelUser")
    try:
        class LabelUser(JModel):  # the registered class's name, on purpose
            name = CharField(max_length=64)
            email = CharField(max_length=64)

            @staticmethod
            @label_for("email")
            @jacqueline
            def jacqueline_restrict_email(user, viewer):
                return viewer is not None

        yield LabelUser
    finally:
        ModelRegistry.register(registered)


def _seed():
    alice = LabelUser.objects.create(name="alice", email="alice@x")
    bob = LabelUser.objects.create(name="bob", email="bob@x")
    LabelPaper.objects.create(title="p1", author=alice)
    return alice, bob


def _titles(papers):
    return sorted(paper.title for paper in papers)


def test_a_joined_read_concretizes_like_the_viewer_context_read(form):
    alice, bob = _seed()
    query = LabelPaper.objects.filter(author__email="alice@x")
    papers, count = query.fetch(), query.count()
    for viewer, titles in ((alice, ["p1"]), (bob, [])):
        with viewer_context(viewer):
            seen, seen_count = query.fetch(), query.count()
        assert _titles(seen) == titles and seen_count == len(titles)
        assert _titles(form.runtime.concretize(papers, viewer)) == titles
        assert form.runtime.concretize(count, viewer) == seen_count
    assert len(form.runtime.policy_env) == 0  # the reads declared nothing


@pytest.mark.parametrize("pushdown", [True, False], ids=["pushdown", "python"])
@pytest.mark.parametrize("kind", ["memory", "sqlite"])
def test_a_policy_lookup_concretizes_in_the_viewers_world(kind, pushdown):
    """A policy's lookup sees the viewer's world at concretisation too.

    The conference ``Paper`` author policy hides the author from a PC
    member conflicted with the paper, through ``PaperPCConflict.objects
    .get(...) is not None``.  A conflict written under a branch only other
    viewers take does not exist for pc0, so pc0 sees the author inside a
    viewer context and after concretising a no-viewer read alike.  The
    policy used to run with no viewer context at concretisation, where
    the lookup returned a faceted value that counted as a hit.
    """
    form = setup_conf(Database(MemoryBackend() if kind == "memory" else SqliteBackend()))
    form.policy_pushdown_enabled = pushdown
    created = seed_conference(form, papers=2, users=2, pc_members=1)
    pc0, guarded = created["pc"][0], created["papers"][1]
    with use_form(form):
        label = Label(hint="conflictbranch")
        form.runtime.policy_env.declare(label)
        form.runtime.policy_env.restrict(
            label, lambda viewer: getattr(viewer, "jid", None) != pc0.jid
        )
        with form.runtime.under_branch(label, True):
            PaperPCConflict.objects.create(paper=guarded, pc=pc0)
        with viewer_context(pc0):
            seen = {paper.jid: paper.author_id for paper in Paper.objects.all().fetch()}
        faceted = Paper.objects.all().fetch()
        concrete = {
            paper.jid: paper.author_id for paper in form.runtime.concretize(faceted, pc0)
        }
    assert seen[guarded.jid] == guarded.author_id is not None
    assert concrete == seen
    form.database.close()


@pytest.mark.parametrize("kind", ["memory", "sqlite"])
def test_a_second_form_concretizes_another_models_value_facet(kind, tmp_path):
    path = str(tmp_path / "labels.db")
    database = Database(MemoryBackend() if kind == "memory" else SqliteBackend(path))
    first = FORM(database)
    first.register_all(MODELS)
    with use_form(first):
        alice, bob = _seed()
        # Read without a viewer, the email is faceted on alice's label, and
        # so is every facet row of the note saved from it.
        users = LabelUser.objects.filter(name="alice").fetch()
        LabelNote.objects.create(text=facet_map(lambda found: found[0].email, users))
    if kind == "sqlite":
        database.close()
        database = Database(SqliteBackend(path))
    second = FORM(database)
    second.register_all(MODELS)
    with use_form(second):
        notes = LabelNote.objects.all().fetch()
        assert collect_labels(notes) == {Label(name=f"LabelUser.{alice.jid}.email")}
        for viewer, text in ((alice, "alice@x"), (bob, "[hidden]")):
            with viewer_context(viewer):
                seen = [note.text for note in LabelNote.objects.all().fetch()]
            concrete = [note.text for note in second.runtime.concretize(notes, viewer)]
            assert concrete == seen == [text]
    database.close()


def test_a_class_of_the_registered_name_does_not_replace_its_policy(form, impostor):
    alice, bob = _seed()
    joined = LabelPaper.objects.filter(author__email="alice@x")
    own = impostor.objects.filter(email="alice@x")
    faceted = [joined.fetch(), own.fetch()]
    with obs.tracing(), viewer_context(bob):
        pushed = [joined.fetch(), own.fetch()]
    assert obs.totals.get("plan.policy_pushdown") == 2
    form.policy_pushdown_enabled = False
    with obs.tracing(), viewer_context(bob):
        python = [joined.fetch(), own.fetch()]
    assert obs.totals.get("plan.policy_pushdown") == 2
    concrete = [form.runtime.concretize(result, bob) for result in faceted]
    assert pushed == python == concrete == [[], []]
    # The registered policy still shows alice her own email.
    with viewer_context(alice):
        assert [user.email for user in own.fetch()] == ["alice@x"]


def test_a_read_of_a_table_without_a_registered_model_is_refused():
    database = Database(MemoryBackend())
    form = FORM(database)
    form.register(LabelPaper)
    with use_form(form):
        LabelPaper.objects.create(title="p1", author=None)
        assert LabelPaper.objects.count() == 1
        # Nothing here could resolve a LabelUser label.
        with pytest.raises(LookupError, match="'LabelUser'"):
            LabelPaper.objects.filter(author__email="alice@x").count()
        with pytest.raises(LookupError, match="'LabelUser'"):
            LabelUser.objects.all().fetch()
    database.close()


def test_restrict_on_a_form_label_is_refused_and_reset_keeps_the_lookup(form):
    """A FORM label's policy is its model's.  Early Pruning and pushdown
    apply that policy alone, so a ``restrict`` that only concretisation
    would conjoin is refused, and every path keeps agreeing."""
    alice, bob = _seed()
    users = LabelUser.objects.filter(name="alice")
    faceted = users.fetch()

    def emails(viewer):
        return [user.email for user in form.runtime.concretize(faceted, viewer)]

    assert emails(alice) == ["alice@x"] and emails(bob) == ["[hidden]"]
    label = Label(name=f"LabelUser.{alice.jid}.email")
    with pytest.raises(PolicyError, match=label.name):
        form.runtime.restrict(label, lambda viewer: viewer.name != "alice")
    with pytest.raises(PolicyError, match=label.name):
        form.runtime.policy_env.restrict(label, never_allow)
    with viewer_context(alice):
        assert [user.email for user in users.fetch()] == emails(alice) == ["alice@x"]
    form.runtime.reset()  # keeps the FORM's lookup
    assert emails(alice) == ["alice@x"] and emails(bob) == ["[hidden]"]
    # A label no model answers still takes restricts.
    hint = form.runtime.label("hint")
    form.runtime.restrict(hint, never_allow)
    assert form.runtime.policy_env.evaluate(hint, alice) is False
