"""Policy-agnostic views for the Jacqueline conference management system.

Note what is *absent* here compared to :mod:`repro.apps.conf.baseline_views`:
no view checks who is allowed to see an author, a decision or a review --
the FORM and the application runtime resolve that from the policies in
:mod:`repro.apps.conf.models` when the page is rendered.
"""

from __future__ import annotations

from typing import Optional

from repro.db.engine import Database
from repro.form import FORM, use_form
from repro.web import JacquelineApp, Response

from repro.apps.conf.models import (
    CONF_MODELS,
    ConferencePhase,
    ConfUser,
    Paper,
    PaperPCConflict,
    Review,
    ReviewAssignment,
)

PAPER_LIST_TEMPLATE = """
<h1>Submitted papers</h1>
<ul>
{% for entry in papers %}
  <li>{{ entry.title }} — author: {% if entry.author %}{{ entry.author.name }}{% else %}[anonymous]{% endif %}</li>
{% endfor %}
</ul>
"""

PAPER_DETAIL_TEMPLATE = """
<h1>{{ paper.title }}</h1>
<p>Author: {% if paper.author %}{{ paper.author.name }}{% else %}[anonymous]{% endif %}</p>
<p>Accepted: {{ paper.accepted }}</p>
<h2>Reviews</h2>
<ul>
{% for review in reviews %}
  <li>score {{ review.score }}: {{ review.contents }}
      (by {% if review.reviewer %}{{ review.reviewer.name }}{% else %}[anonymous reviewer]{% endif %})</li>
{% endfor %}
</ul>
"""

USER_LIST_TEMPLATE = """
<h1>Registered users</h1>
<ul>
{% for person in users %}
  <li>{{ person.name }} ({{ person.affiliation }}) — {{ person.email }}</li>
{% endfor %}
</ul>
"""

USER_DETAIL_TEMPLATE = """
<h1>{{ profile.name }}</h1>
<p>Affiliation: {{ profile.affiliation }}</p>
<p>Email: {{ profile.email }}</p>
<h2>Papers</h2>
<ul>
{% for entry in papers %}
  <li>{{ entry.title }}</li>
{% endfor %}
</ul>
"""


def setup_conf(database: Optional[Database] = None, cache_config=None) -> FORM:
    """Create a FORM with the conference schema registered.

    ``cache_config`` is ignored: only perfbench still passes it (the FORM
    caches no reads).
    """
    form = FORM(database or Database())
    form.register_all(CONF_MODELS)
    ConferencePhase.reset()
    return form


def build_conf_app(form: FORM, early_pruning: bool = True) -> JacquelineApp:
    """Assemble the Jacqueline conference application."""
    app = JacquelineApp(form, name="conf-jacqueline", early_pruning=early_pruning)
    app.add_template("papers", PAPER_LIST_TEMPLATE)
    app.add_template("paper", PAPER_DETAIL_TEMPLATE)
    app.add_template("users", USER_LIST_TEMPLATE)
    app.add_template("profile", USER_DETAIL_TEMPLATE)

    def load_user(user_id):
        with use_form(form):
            return ConfUser.objects.get(jid=user_id)

    app.auth.set_user_loader(load_user)

    @app.route("/register", methods=("POST",))
    def register(request):
        user = ConfUser.objects.create(
            name=request.form("name"),
            affiliation=request.form("affiliation", ""),
            email=request.form("email", ""),
            level=request.form("level", "normal"),
        )
        app.auth.register(request.form("name"), request.form("password", "pw"), user.jid)
        return Response.redirect("/papers")

    @app.route("/login", methods=("POST",))
    def login(request):
        user = ConfUser.objects.get(name=request.form("username"))
        if user is None:
            return Response.forbidden("unknown user")
        app.auth.force_login(request.session, user.jid, request.form("username"))
        return Response.redirect("/papers")

    @app.route("/papers", methods=("GET",), template="papers")
    def all_papers(request):
        """The "view all papers" stress-test page (Figure 9a, Table 3)."""
        return {"papers": Paper.objects.all().fetch()}

    @app.route("/paper/<jid>", methods=("GET",), template="paper")
    def paper_detail(request):
        """The single-paper page of Table 4."""
        jid = int(request.param("jid"))
        paper = Paper.objects.get(jid=jid)
        reviews = Review.objects.filter(paper_id=jid).fetch()
        return {"paper": paper, "reviews": reviews}

    @app.route("/users", methods=("GET",), template="users")
    def all_users(request):
        """The "view all users" stress-test page (Figure 9a, Table 3)."""
        return {"users": ConfUser.objects.all().fetch()}

    @app.route("/user/<jid>", methods=("GET",), template="profile")
    def user_detail(request):
        """The single-user page of Table 4."""
        jid = int(request.param("jid"))
        profile = ConfUser.objects.get(jid=jid)
        papers = Paper.objects.filter(author_id=jid).fetch()
        return {"profile": profile, "papers": papers}

    @app.route("/submit", methods=("POST",))
    def submit_paper(request):
        if request.user is None:
            return Response.forbidden("login required")
        Paper.objects.create(title=request.form("title"), author=request.user)
        return Response.redirect("/papers")

    @app.route("/review", methods=("POST",))
    def submit_review(request):
        if request.user is None:
            return Response.forbidden("login required")
        Review.objects.create(
            paper_id=int(request.form("paper")),
            reviewer=request.user,
            contents=request.form("contents", ""),
            score=int(request.form("score", 0)),
        )
        return Response.redirect("/papers")

    @app.route("/assign", methods=("POST",))
    def assign_review(request):
        if not request.user or getattr(request.user, "level", "") != "chair":
            return Response.forbidden("chair only")
        ReviewAssignment.objects.create(
            paper_id=int(request.form("paper")), pc_id=int(request.form("pc"))
        )
        return Response.redirect("/papers")

    @app.route("/phase", methods=("POST",))
    def set_phase(request):
        if not request.user or getattr(request.user, "level", "") != "chair":
            return Response.forbidden("chair only")
        ConferencePhase.set(request.form("phase"))
        return Response.redirect("/papers")

    return app
