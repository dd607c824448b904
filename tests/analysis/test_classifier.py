"""Policy-tier tests (repro.analysis.classify).

Inline policies (one group or several, lookups on unpolicied models,
reads of a guarded column), one opaque policy per reason, the report
record, and parity between the tier the analyzer reports from source and
the tier the pushdown planner uses at run time.
"""

import importlib
import os

import pytest

from repro.analysis.classify import classify_module, model_tier
from repro.analysis.facts import facts_for_path, facts_for_source
from repro.analysis.symbolic import predicate_text
from repro.form import pushdown
from repro.form.pushdown import profile_for

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
APPS = ("conf", "course", "health", "calendar")


def _tier(source):
    return model_tier(facts_for_source(source, "m.py").models[0])


def _app_records(app):
    path = os.path.join(REPO_ROOT, "src", "repro", "apps", app, "models.py")
    return classify_module(facts_for_path(path))


def test_single_group_predicate_renders_inline():
    decision = _tier('''
class Paper(JModel):
    title = CharField()
    author = ForeignKey("User")

    @staticmethod
    @label_for("title")
    def restrict(paper, viewer):
        return viewer is not None and viewer.jid == paper.author_id
''')
    assert decision.tier == "inline"
    assert decision.reason is None
    assert [predicate_text(p) for p in decision.predicates] == [
        "(viewer is not None and author_id == viewer.jid)"
    ]


def test_helper_with_getattr_inlines_to_equality():
    decision = _tier('''
def _is_staff(user):
    return getattr(user, "level", None) in ("pc", "chair")


class Paper(JModel):
    title = CharField()

    @staticmethod
    @label_for("title")
    def restrict(paper, viewer):
        return _is_staff(viewer)
''')
    assert decision.tier == "inline"
    assert [predicate_text(p) for p in decision.predicates] == [
        "viewer.level in ('pc', 'chair')"
    ]


def test_several_policy_groups_render_inline_one_predicate_each():
    decision = _tier('''
class Paper(JModel):
    title = CharField()
    author = ForeignKey("User")

    @staticmethod
    @label_for("title")
    def restrict_title(paper, viewer):
        return viewer is not None

    @staticmethod
    @label_for("author")
    def restrict_author(paper, viewer):
        return viewer is not None and viewer.jid == paper.author_id
''')
    assert (decision.tier, decision.reason) == ("inline", None)
    assert [predicate_text(p) for p in decision.predicates] == [
        "viewer is not None",
        "(viewer is not None and author_id == viewer.jid)",
    ]


def test_a_group_with_top_makes_the_model_opaque():
    decision = _tier('''
class Paper(JModel):
    title = CharField()
    author = ForeignKey("User")

    @staticmethod
    @label_for("title")
    def restrict_title(paper, viewer):
        return viewer is not None

    @staticmethod
    @label_for("author")
    def restrict_author(paper, viewer):
        return viewer == paper.author
''')
    assert (decision.tier, decision.predicates) == ("opaque", None)
    assert decision.reason == "object compared against a value"


def test_lookup_on_an_unpolicied_model_renders_inline():
    decision = _tier('''
class Event(JModel):
    name = CharField()

    @staticmethod
    @label_for("name")
    def restrict(event, viewer):
        if viewer is None:
            return False
        return Guest.objects.get(event=event, guest=viewer) is not None


class Guest(JModel):
    event = ForeignKey(Event)
    guest = ForeignKey("User")
''')
    assert decision.tier == "inline"
    assert [predicate_text(p) for p in decision.predicates] == [
        "(viewer is not None and jid in Guest(guest_id=viewer).event_id)"
    ]
    assert decision.lookups == frozenset({"Guest"})


def test_viewer_as_query_filter_is_opaque():
    decision = _tier('''
class Event(JModel):
    name = CharField()

    @staticmethod
    @label_for("name")
    def restrict(event, viewer):
        return Guest.objects.get(event=event, guest=viewer) is not None
''')
    assert (decision.tier, decision.predicates) == ("opaque", None)
    assert decision.reason == "lookup on unknown model 'Guest'"


def test_range_on_nullable_column_is_opaque():
    decision = _tier('''
class Doc(JModel):
    body = CharField()
    score = IntegerField()

    @staticmethod
    @label_for("body")
    def restrict(doc, viewer):
        return doc.score > 3
''')
    assert decision.tier == "opaque"
    assert decision.reason == "no two-valued rendering for score > 3"


def test_read_of_own_guarded_column_renders_inline():
    decision = _tier('''
class Doc(JModel):
    owner = CharField()

    @staticmethod
    @label_for("owner")
    def restrict(doc, viewer):
        return viewer is not None and doc.owner == viewer.name
''')
    assert (decision.tier, decision.reason) == ("inline", None)


def test_tier_record_carries_group_metadata():
    module = facts_for_source('''
class Paper(JModel):
    title = CharField()
    author = ForeignKey("User")

    @staticmethod
    @label_for("title")
    def restrict(paper, viewer):
        return viewer == paper.author
''', "m.py")
    (record,) = classify_module(module)
    assert record["model"] == "Paper"
    assert record["group"] == "title"
    assert record["fields"] == ["title"]
    assert record["policy"] == "restrict"
    assert record["tier"] == "opaque"
    assert record["reason"] == "object compared against a value"
    assert record["predicate"] == {"top": "object compared against a value"}


def test_conf_app_policies_classify_as_verified():
    tiers = {
        (r["model"], r["group"]): (r["tier"], r["reason"])
        for r in _app_records("conf")
    }
    assert tiers == {
        ("ConfUser", "email"): ("inline", None),
        ("Paper", "author"): ("inline", None),
        ("Paper", "accepted"): ("inline", None),
        ("Review", "reviewer"): ("opaque", "lookup on policied model 'Paper'"),
        ("Review", "contents"): ("opaque", "lookup on policied model 'Paper'"),
    }


def test_calendar_app_membership_policies_are_opaque():
    tiers = {
        (r["model"], r["group"]): (r["tier"], r["reason"])
        for r in _app_records("calendar")
    }
    assert tiers == {
        ("Event", "name"): ("opaque", "lookup on policied model 'EventGuest'"),
        ("EventGuest", "guest"): ("opaque", "lookup on policied model 'EventGuest'"),
    }


def test_course_and_health_tiers_name_their_reasons():
    tiers = {
        (r["model"], r["group"]): (r["tier"], r["reason"])
        for app in ("course", "health") for r in _app_records(app)
    }
    nullable = "lookup keyed on nullable column"
    assert tiers == {
        ("Course", "instructor"): ("inline", None),
        ("Submission", "contents"): ("opaque", f"{nullable} assignment_id"),
        ("Submission", "grade"): ("opaque", f"{nullable} assignment_id"),
        ("HealthUser", "email"): ("inline", None),
        ("HealthRecord", "diagnosis"): ("opaque", f"{nullable} patient_id"),
    }


@pytest.mark.parametrize("app", APPS)
def test_static_tiers_match_the_live_profiles(app):
    models = importlib.import_module(f"repro.apps.{app}.models")
    policied = {
        model.__name__: model
        for model in getattr(models, f"{app.upper()}_MODELS")
        if model._meta.policy_groups
    }
    records = _app_records(app)
    assert {record["model"] for record in records} == set(policied)
    for record in records:
        profile = profile_for(policied[record["model"]])
        assert (record["tier"], record["reason"]) == (profile.tier, profile.reason)
        if record["tier"] == "opaque":
            assert record["reason"]


def test_facts_failure_gives_opaque_with_its_reason(monkeypatch):
    from repro.apps.conf.models import ConfUser

    def lost(model):
        raise OSError("could not get source code")

    assert profile_for(ConfUser).tier == "inline"
    # Both patches are undone in reverse order: the cached inline profile
    # comes back after the test.
    monkeypatch.setattr(pushdown, "facts_for_model", lost)
    monkeypatch.delattr(ConfUser._meta, "_pushdown_profile")
    profile = profile_for(ConfUser)
    assert (profile.tier, profile.predicates) == ("opaque", None)
    assert "could not get source code" in profile.reason
