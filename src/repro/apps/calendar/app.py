"""Views and application wiring for the calendar example."""

from __future__ import annotations

import datetime
from typing import Optional

from repro.db.engine import Database
from repro.form import FORM, use_form
from repro.web import JacquelineApp, Response

from repro.apps.calendar.models import CALENDAR_MODELS, Event, EventGuest, UserProfile

EVENT_LIST_TEMPLATE = """
<h1>Events for {{ user.name }}</h1>
<ul>
{% for event in events %}
  <li>{{ event.name }} at {{ event.location }}</li>
{% endfor %}
</ul>
"""

EVENT_DETAIL_TEMPLATE = """
<h1>{{ event.name }}</h1>
<p>Location: {{ event.location }}</p>
<p>Guests:</p>
<ul>
{% for entry in guests %}
  <li>{{ entry.guest.name }}</li>
{% endfor %}
</ul>
"""


def setup_calendar(database: Optional[Database] = None) -> FORM:
    """Create a FORM with the calendar schema registered."""
    form = FORM(database or Database())
    form.register_all(CALENDAR_MODELS)
    return form


def build_calendar_app(form: FORM, early_pruning: bool = True) -> JacquelineApp:
    """The calendar application: login, event list and event detail pages."""
    app = JacquelineApp(form, name="calendar", early_pruning=early_pruning)
    app.add_template("events", EVENT_LIST_TEMPLATE)
    app.add_template("event", EVENT_DETAIL_TEMPLATE)

    def load_user(user_id):
        with use_form(form):
            return UserProfile.objects.get(jid=user_id)

    app.auth.set_user_loader(load_user)

    @app.route("/login", methods=("POST",))
    def login(request):
        user = UserProfile.objects.get(name=request.form("username"))
        if user is None:
            return Response.forbidden("unknown user")
        app.auth.force_login(request.session, user.jid, request.form("username"))
        return Response.redirect("/events")

    @app.route("/events", methods=("GET",), template="events")
    def events(request):
        return {"events": Event.objects.all().fetch()}

    @app.route("/event/<jid>", methods=("GET",), template="event")
    def event_detail(request):
        event = Event.objects.get(jid=int(request.param("jid")))
        guests = EventGuest.objects.filter(event_id=int(request.param("jid"))).fetch()
        return {"event": event, "guests": guests}

    @app.route("/event", methods=("POST",))
    def create_event(request):
        event = Event.objects.create(
            name=request.form("name"),
            location=request.form("location"),
            time=datetime.datetime(2026, 6, 16, 19, 0),
            description=request.form("description", ""),
        )
        for guest_name in request.form("guests", "").split(","):
            guest_name = guest_name.strip()
            if not guest_name:
                continue
            guest = UserProfile.objects.get(name=guest_name)
            if guest is not None:
                EventGuest.objects.create(event=event, guest=guest)
        return Response.redirect("/events")

    return app
