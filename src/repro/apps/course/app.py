"""Views, wiring and workload seeding for the course manager.

The all-courses page resolves the instructor of every course; each of those
lookups is guarded by a policy that itself queries the enrollment table.
Without Early Pruning the framework must carry every facet combination
through the page, which blows up combinatorially -- reproducing Table 5.
"""

from __future__ import annotations

import datetime
from typing import Dict, Optional

from repro.db.engine import Database
from repro.form import FORM, use_form
from repro.web import JacquelineApp, Response

from repro.apps.course.models import (
    COURSE_MODELS,
    Assignment,
    Course,
    CourseUser,
    Enrollment,
    Submission,
)

COURSE_LIST_TEMPLATE = """
<h1>All courses</h1>
<ul>
{% for entry in courses %}
  <li>{{ entry.course.title }} — instructor:
      {% if entry.instructor %}{{ entry.instructor.name }}{% else %}[not listed]{% endif %}</li>
{% endfor %}
</ul>
"""

COURSE_DETAIL_TEMPLATE = """
<h1>{{ course.title }}</h1>
<p>Instructor: {% if course.instructor %}{{ course.instructor.name }}{% else %}[not listed]{% endif %}</p>
<h2>Assignments</h2>
<ul>
{% for assignment in assignments %}
  <li>{{ assignment.title }} (due {{ assignment.due }})</li>
{% endfor %}
</ul>
"""

SUBMISSION_LIST_TEMPLATE = """
<h1>Submissions for {{ assignment.title }}</h1>
<ul>
{% for submission in submissions %}
  <li>{{ submission.student.name }}: {{ submission.contents }} (grade {{ submission.grade }})</li>
{% endfor %}
</ul>
"""


def setup_courses(database: Optional[Database] = None) -> FORM:
    """Create a FORM with the course schema registered."""
    form = FORM(database or Database())
    form.register_all(COURSE_MODELS)
    return form


def seed_courses(
    form: FORM,
    courses: int = 8,
    students_per_course: int = 2,
    assignments_per_course: int = 1,
) -> Dict[str, list]:
    """Populate the course manager for the Figure 9(c) / Table 5 stress tests."""
    created: Dict[str, list] = {
        "instructors": [],
        "students": [],
        "courses": [],
        "assignments": [],
        "submissions": [],
    }
    with use_form(form):
        for index in range(courses):
            instructor = CourseUser.objects.create(name=f"instructor{index}", role="instructor")
            created["instructors"].append(instructor)
            course = Course.objects.create(title=f"Course {index}", instructor=instructor)
            created["courses"].append(course)
            for student_index in range(students_per_course):
                student = CourseUser.objects.create(
                    name=f"student{index}_{student_index}", role="student"
                )
                created["students"].append(student)
                Enrollment.objects.create(course=course, student=student)
            for assignment_index in range(assignments_per_course):
                assignment = Assignment.objects.create(
                    course=course,
                    title=f"Assignment {assignment_index} of course {index}",
                    due=datetime.datetime(2026, 7, 1) + datetime.timedelta(days=assignment_index),
                )
                created["assignments"].append(assignment)
                if created["students"]:
                    submitter = created["students"][-1]
                    created["submissions"].append(
                        Submission.objects.create(
                            assignment=assignment,
                            student=submitter,
                            contents=f"Answer by {submitter.name}",
                            grade=90,
                        )
                    )
    return created


def build_course_app(form: FORM, early_pruning: bool = True) -> JacquelineApp:
    """Assemble the course manager application.

    ``early_pruning=False`` reproduces the "without pruning" column of
    Table 5: the all-courses page then builds the full faceted result.
    """
    app = JacquelineApp(form, name="courses", early_pruning=early_pruning)
    app.add_template("courses", COURSE_LIST_TEMPLATE)
    app.add_template("course", COURSE_DETAIL_TEMPLATE)
    app.add_template("submissions", SUBMISSION_LIST_TEMPLATE)

    def load_user(user_id):
        with use_form(form):
            return CourseUser.objects.get(jid=user_id)

    app.auth.set_user_loader(load_user)

    @app.route("/login", methods=("POST",))
    def login(request):
        user = CourseUser.objects.get(name=request.form("username"))
        if user is None:
            return Response.forbidden("unknown user")
        app.auth.force_login(request.session, user.jid, request.form("username"))
        return Response.redirect("/courses")

    @app.route("/courses", methods=("GET",), template="courses")
    def all_courses(request):
        """The Table 5 stress page: every course plus its instructor.

        With Early Pruning the query returns a plain list for the session
        user.  Without it the query result is faceted and the instructor of
        every course must be resolved in every facet, which is the blowup
        Table 5 documents.
        """
        from repro.core.facets import facet_map

        def expand(course_list):
            return [
                {"course": course, "instructor": course.instructor} for course in course_list
            ]

        courses = Course.objects.all().fetch()
        if isinstance(courses, list):
            return {"courses": expand(courses)}
        return {"courses": facet_map(expand, courses)}

    @app.route("/course/<jid>", methods=("GET",), template="course")
    def course_detail(request):
        jid = int(request.param("jid"))
        return {
            "course": Course.objects.get(jid=jid),
            "assignments": Assignment.objects.filter(course_id=jid).fetch(),
        }

    @app.route("/assignment/<jid>/submissions", methods=("GET",), template="submissions")
    def assignment_submissions(request):
        jid = int(request.param("jid"))
        return {
            "assignment": Assignment.objects.get(jid=jid),
            "submissions": Submission.objects.filter(assignment_id=jid).fetch(),
        }

    @app.route("/submit", methods=("POST",))
    def submit(request):
        if request.user is None:
            return Response.forbidden("login required")
        Submission.objects.create(
            assignment_id=int(request.form("assignment")),
            student=request.user,
            contents=request.form("contents", ""),
        )
        return Response.redirect("/courses")

    @app.route("/grade", methods=("POST",))
    def grade(request):
        if request.user is None or getattr(request.user, "role", "") != "instructor":
            return Response.forbidden("instructors only")
        submission = Submission.objects.get(jid=int(request.form("submission")))
        if submission is None:
            return Response.not_found("no such submission")
        submission.grade = int(request.form("grade", 0))
        submission.save()
        assignment = Assignment.objects.get(jid=submission.assignment_id)
        if assignment is not None:
            assignment.graded = True
            assignment.save()
        return Response.redirect("/courses")

    return app
