"""Compiled policy predicates round-tripping into the pushdown decision.

Every policied model of the four demo applications must land in exactly
one tier:

* ``inline`` -- the compiled symbolic predicate renders in the WHERE
  clause; a viewer-context query counts ``plan.policy_pushdown``;
* ``opaque`` -- the Python path; counts
  ``plan.policy_pushdown.opaque_fallback``.

An inline query that falls back at run time counts its reason
(``plan.policy_pushdown.fallback.bind`` or ``.facet_rows``).  There is
no silent third state: a policied query the planner skips without a
counter would mean a case the decision procedure forgot.
"""

import datetime

import pytest

from repro import obs
from repro.apps.calendar.models import CALENDAR_MODELS, Event, UserProfile
from repro.apps.conf.models import CONF_MODELS, ConfUser, Paper
from repro.apps.course.models import COURSE_MODELS, Course, CourseUser
from repro.apps.health.models import HEALTH_MODELS, HealthRecord, HealthUser
from repro.cache.config import CacheConfig
from repro.db import Database
from repro.form import FORM, use_form, viewer_context
from repro.analysis.symbolic import contains_top
from repro.form.pushdown import profile_for

POLICIED_TIERS = {"inline", "opaque"}
FALLBACK_COUNTERS = (
    "plan.policy_pushdown.opaque_fallback",
    "plan.policy_pushdown.fallback.bind",
    "plan.policy_pushdown.fallback.facet_rows",
)

APPS = {
    "conf": CONF_MODELS,
    "course": COURSE_MODELS,
    "health": HEALTH_MODELS,
    "calendar": CALENDAR_MODELS,
}


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def _policied_models():
    for app, models in APPS.items():
        for model in models:
            if model._meta.policy_groups:
                yield app, model


def test_every_demo_policy_shape_round_trips():
    for app, model in _policied_models():
        profile = profile_for(model)
        # Exhaustive outcome at profile time: exactly one tier.
        assert profile.tier in POLICIED_TIERS, (app, model.__name__, profile)
        if profile.tier == "inline":
            # One policy group, compiled without TOP.
            assert len(model._meta.policy_groups) == 1, (app, model.__name__)
            assert profile.predicate is not None, (app, model.__name__)
            assert not contains_top(profile.predicate), (app, model.__name__)
        else:
            assert profile.predicate is None, (app, model.__name__)


def test_demo_tiers_are_the_expected_ones():
    """The concrete assignment the docs and benchmarks talk about: the
    conf app's viewer model is inline, and the multi-group models and
    every cross-record policy are opaque."""
    tiers = {
        model.__name__: profile_for(model).tier
        for _app, model in _policied_models()
    }
    assert tiers == {
        "ConfUser": "inline",
        "Paper": "opaque",
        "Review": "opaque",
        "Course": "opaque",
        "Submission": "opaque",
        "HealthUser": "opaque",
        "HealthRecord": "opaque",
        "Event": "opaque",
        "EventGuest": "opaque",
    }


def _seed(app, form):
    """One viewer and one policied record per app, minimal fields."""
    if app == "conf":
        viewer = ConfUser.objects.create(
            name="ada", affiliation="a", email="a@x", level="normal"
        )
        Paper.objects.create(title="p", author=viewer)
        return viewer
    if app == "course":
        viewer = CourseUser.objects.create(name="ada", role="instructor")
        Course.objects.create(title="c", instructor=viewer)
        return viewer
    if app == "health":
        viewer = HealthUser.objects.create(
            name="ada", role="patient", email="a@x"
        )
        HealthRecord.objects.create(
            patient=viewer, doctor=viewer, diagnosis="d", notes="n",
            date=datetime.datetime(2016, 6, 13),
        )
        return viewer
    viewer = UserProfile.objects.create(name="ada", email="a@x")
    Event.objects.create(
        name="e", location="l", time=datetime.datetime(2016, 6, 13),
        description="d",
    )
    return viewer


@pytest.mark.parametrize("app", sorted(APPS))
def test_every_demo_query_is_counted_pushdown_or_fallback(app):
    form = FORM(Database(), cache_config=CacheConfig.disabled())
    form.register_all(APPS[app])
    with use_form(form):
        viewer = _seed(app, form)
        for model in APPS[app]:
            if not model._meta.policy_groups:
                continue
            with viewer_context(viewer):
                model.objects.all().fetch()  # warm the facet-row probe
            obs.reset()
            with obs.tracing(), viewer_context(viewer):
                model.objects.all().fetch()
            pushed = obs.totals.get("plan.policy_pushdown")
            fallbacks = sum(obs.totals.get(name) for name in FALLBACK_COUNTERS)
            opaque = obs.totals.get("plan.policy_pushdown.opaque_fallback")
            profile = profile_for(model)
            assert pushed + fallbacks >= 1, (app, model.__name__, profile)
            if profile.tier == "inline":
                assert pushed >= 1 and opaque == 0, (app, model.__name__, profile)
            else:
                assert opaque >= 1 and pushed == 0, (app, model.__name__)
