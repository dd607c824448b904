"""The compiled policy IR against the policies themselves, exhaustively.

Every inline demo model renders its policy groups into the statement
(:mod:`repro.form.pushdown`).  This oracle enumerates a small bound domain
completely, as a bounded model checker would, and compares the rows the
pushed statement keeps with the rows the Python path keeps
(``form.policy_pushdown_enabled = False``), on both backends:

* viewer: the row's owner (a paper's author, a course's instructor, the
  user whose email it is), another owner, every related user (PC members
  and the chair, enrolled students, doctors and an insurer), and a
  non-model object;
* phase: all three conference phases (the other apps read no global);
* row: the positive and the negative facet rows, through an unfiltered
  read and through filters that match only one of them, so a negative
  row is also kept or dropped when the read never fetched its record's
  secret row;
* relation: the lookup's row (a PC conflict, an enrolment, a treatment)
  present, absent, or written under a path condition.

A read either runs both paths to the same rows or raises the same error
on both (a policy handed a non-model viewer).  Each world also pins how
the read was planned: pushed, or falling back under the reason the
world forces -- a relation written under a path condition holds facet
rows, and a non-model viewer does not bind as a lookup key -- so the
comparison never degenerates into the Python path against itself.
"""

from __future__ import annotations

import types

import pytest

from repro import obs
from repro.apps.conf.models import (
    CONF_MODELS,
    ConferencePhase,
    ConfUser,
    Paper,
    PaperPCConflict,
)
from repro.apps.course.models import COURSE_MODELS, Course, CourseUser, Enrollment
from repro.apps.health.models import HEALTH_MODELS, HealthUser, TreatmentRelationship
from repro.core.labels import Label
from repro.db import Database, SqliteBackend
from repro.form import FORM, use_form, viewer_context
from repro.form.pushdown import profile_for

BACKENDS = ("memory", "sqlite")
RELATIONS = ("present", "absent", "guarded")
PHASES = (ConferencePhase.SUBMISSION, ConferencePhase.REVIEW, ConferencePhase.FINAL)
PUSHED = "plan.policy_pushdown"
BIND = "plan.policy_pushdown.fallback.bind"
FACET_ROWS = "plan.policy_pushdown.fallback.facet_rows"


def _form(backend, models):
    database = Database(SqliteBackend()) if backend == "sqlite" else Database()
    form = FORM(database)
    form.register_all(models)
    return form


def _relate(form, relation, create):
    """Create the lookup's row plainly, not at all, or under a path
    condition (a branch only the chair's side of the world takes)."""
    if relation == "present":
        create()
    elif relation == "guarded":
        label = Label(hint="oraclebranch")
        form.runtime.policy_env.declare(label)
        form.runtime.policy_env.restrict(
            label, lambda seen: getattr(seen, "name", None) == "chair"
        )
        with form.runtime.under_branch(label, True):
            create()


def _stranger(jid):
    """A viewer that is no model instance, with the attributes the demo
    policies read."""
    return types.SimpleNamespace(
        jid=jid, name="stranger", level="pc", role="doctor", email="x@y"
    )


def _conf_world(backend, relation):
    form = _form(backend, CONF_MODELS)
    with use_form(form):
        chair = ConfUser.objects.create(name="chair", email="c@x", level="chair")
        pc0 = ConfUser.objects.create(name="pc0", email="p0@x", level="pc")
        pc1 = ConfUser.objects.create(name="pc1", email="p1@x", level="pc")
        ada = ConfUser.objects.create(name="ada", email="a@x")
        bob = ConfUser.objects.create(name="bob", email="b@x")
        first = Paper.objects.create(title="p1", author=ada)
        Paper.objects.create(title="p2", author=ada)
        Paper.objects.create(title="p3", author=bob)
        _relate(form, relation, lambda: PaperPCConflict.objects.create(paper=first, pc=pc0))
    viewers = {
        "author": ada, "other author": bob, "pc0": pc0, "pc1": pc1,
        "chair": chair, "stranger": _stranger(ada.jid),
    }
    reads = {
        "paper/all": lambda: Paper.objects.all(),
        "paper/positive": lambda: Paper.objects.filter(author=ada),
        "paper/negative": lambda: Paper.objects.filter(author=None),
        "user/all": lambda: ConfUser.objects.all(),
        "user/positive": lambda: ConfUser.objects.filter(email="a@x"),
        "user/negative": lambda: ConfUser.objects.filter(email="[hidden email]"),
    }
    return form, viewers, reads, PHASES


def _course_world(backend, relation):
    form = _form(backend, COURSE_MODELS)
    with use_form(form):
        teacher = CourseUser.objects.create(name="teacher", role="instructor")
        other = CourseUser.objects.create(name="other", role="instructor")
        enrolled = CourseUser.objects.create(name="enrolled")
        student = CourseUser.objects.create(name="student")
        first = Course.objects.create(title="c1", instructor=teacher)
        Course.objects.create(title="c2", instructor=teacher)
        Course.objects.create(title="c3", instructor=other)
        _relate(
            form, relation,
            lambda: Enrollment.objects.create(course=first, student=enrolled),
        )
    viewers = {
        "instructor": teacher, "other instructor": other, "enrolled": enrolled,
        "student": student, "stranger": _stranger(teacher.jid),
    }
    reads = {
        "course/all": lambda: Course.objects.all(),
        "course/positive": lambda: Course.objects.filter(instructor=teacher),
        "course/negative": lambda: Course.objects.filter(instructor=None),
    }
    return form, viewers, reads, (None,)


def _health_world(backend, relation):
    form = _form(backend, HEALTH_MODELS)
    with use_form(form):
        patient = HealthUser.objects.create(name="pat", role="patient", email="pat@x")
        other = HealthUser.objects.create(name="oth", role="patient", email="oth@x")
        doctor = HealthUser.objects.create(name="doc", role="doctor", email="doc@x")
        stranger_doctor = HealthUser.objects.create(
            name="doc2", role="doctor", email="doc2@x"
        )
        insurer = HealthUser.objects.create(name="ins", role="insurer", email="ins@x")
        _relate(
            form, relation,
            lambda: TreatmentRelationship.objects.create(patient=patient, doctor=doctor),
        )
    viewers = {
        "patient": patient, "other patient": other, "doctor": doctor,
        "other doctor": stranger_doctor, "insurer": insurer,
        "stranger": _stranger(patient.jid),
    }
    reads = {
        "user/all": lambda: HealthUser.objects.all(),
        "user/positive": lambda: HealthUser.objects.filter(email="pat@x"),
        "user/negative": lambda: HealthUser.objects.filter(email="[hidden]"),
    }
    return form, viewers, reads, (None,)


WORLDS = {"conf": _conf_world, "course": _course_world, "health": _health_world}


def _rows(query_set):
    """The kept rows: every field of every visible instance, or the
    error the read raised."""
    try:
        instances = query_set.fetch()
    except Exception as error:
        return ("raised", type(error).__name__)
    columns = [field.column_name for field in query_set.model._meta.fields.values()]
    return sorted(
        (instance.jid, *(repr(vars(instance).get(column)) for column in columns))
        for instance in instances
    )


def _planned(query_set):
    """How the pushed read ran: its one pushdown counter."""
    obs.reset()
    with obs.tracing():
        outcome = _rows(query_set)
    counted = {
        name for name in (PUSHED, BIND, FACET_ROWS, PUSHED + ".opaque_fallback")
        if obs.totals.get(name)
    }
    return outcome, counted


def test_every_demo_policy_group_is_covered():
    """The worlds read every policy group of every inline demo model."""
    covered = {ConfUser, Paper, Course, HealthUser}
    inline = {
        model for models in (CONF_MODELS, COURSE_MODELS, HEALTH_MODELS)
        for model in models if profile_for(model).tier == "inline"
    }
    assert inline == covered


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("app", sorted(WORLDS))
def test_pushed_statements_keep_the_python_paths_rows(app, backend):
    obs.disable()
    pushed = 0
    try:
        for relation in RELATIONS:
            form, viewers, reads, phases = WORLDS[app](backend, relation)
            with use_form(form):
                for phase in phases:
                    if phase is not None:
                        ConferencePhase.set(phase)
                    for viewer_name, viewer in viewers.items():
                        for read_name, read in reads.items():
                            where = (app, backend, relation, phase, viewer_name, read_name)
                            with viewer_context(viewer):
                                form.policy_pushdown_enabled = False
                                oracle = _rows(read())
                                form.policy_pushdown_enabled = True
                                outcome, counted = _planned(read())
                            assert outcome == oracle, where
                            model = read().model
                            if relation == "guarded" and model is not ConfUser:
                                assert counted == {FACET_ROWS}, where
                            elif viewer_name == "stranger":
                                assert counted <= {PUSHED, BIND} and counted, where
                            else:
                                assert counted == {PUSHED}, where
                            pushed += PUSHED in counted
            form.database.close()
    finally:
        ConferencePhase.reset()
        obs.disable()
        obs.reset()
    assert pushed
