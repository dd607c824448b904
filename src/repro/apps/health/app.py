"""Views, wiring and workload seeding for the health record manager."""

from __future__ import annotations

import datetime
from typing import Dict, Optional

from repro.db.engine import Database
from repro.form import FORM, use_form
from repro.web import JacquelineApp, Response

from repro.apps.health.models import (
    HEALTH_MODELS,
    HealthRecord,
    HealthUser,
    TreatmentRelationship,
    Waiver,
)

RECORD_LIST_TEMPLATE = """
<h1>Medical records</h1>
<ul>
{% for record in records %}
  <li>{{ record.date }} — patient {{ record.patient.name }}: {{ record.diagnosis }}</li>
{% endfor %}
</ul>
"""

USER_LIST_TEMPLATE = """
<h1>Directory</h1>
<ul>
{% for person in people %}
  <li>{{ person.name }} ({{ person.role }}) — {{ person.email }}</li>
{% endfor %}
</ul>
"""

RECORD_DETAIL_TEMPLATE = """
<h1>Record {{ record.jid }}</h1>
<p>Patient: {{ record.patient.name }}</p>
<p>Diagnosis: {{ record.diagnosis }}</p>
<p>Notes: {{ record.notes }}</p>
"""


def setup_health(database: Optional[Database] = None) -> FORM:
    """Create a FORM with the health schema registered."""
    form = FORM(database or Database())
    form.register_all(HEALTH_MODELS)
    return form


def seed_health(
    form: FORM,
    patients: int = 8,
    doctors: int = 4,
    insurers: int = 2,
    records_per_patient: int = 1,
) -> Dict[str, list]:
    """Populate the health record manager for the Figure 9(b) stress test."""
    created: Dict[str, list] = {"patients": [], "doctors": [], "insurers": [], "records": []}
    with use_form(form):
        for index in range(doctors):
            created["doctors"].append(
                HealthUser.objects.create(
                    name=f"doctor{index}", role="doctor", email=f"doc{index}@hospital.org"
                )
            )
        for index in range(insurers):
            created["insurers"].append(
                HealthUser.objects.create(
                    name=f"insurer{index}", role="insurer", email=f"claims{index}@insurer.com"
                )
            )
        for index in range(patients):
            patient = HealthUser.objects.create(
                name=f"patient{index}", role="patient", email=f"patient{index}@mail.org"
            )
            created["patients"].append(patient)
            doctor = created["doctors"][index % doctors] if doctors else None
            if doctor is not None:
                TreatmentRelationship.objects.create(patient=patient, doctor=doctor)
            if insurers and index % 2 == 0:
                Waiver.objects.create(
                    patient=patient, insurer=created["insurers"][index % insurers]
                )
            for record_index in range(records_per_patient):
                created["records"].append(
                    HealthRecord.objects.create(
                        patient=patient,
                        doctor=doctor,
                        diagnosis=f"Diagnosis {record_index} for patient {index}",
                        notes=f"Notes {record_index}",
                        date=datetime.datetime(2026, 1, 1) + datetime.timedelta(days=index),
                    )
                )
    return created


def build_health_app(form: FORM, early_pruning: bool = True) -> JacquelineApp:
    """Assemble the health record application."""
    app = JacquelineApp(form, name="health", early_pruning=early_pruning)
    app.add_template("records", RECORD_LIST_TEMPLATE)
    app.add_template("record", RECORD_DETAIL_TEMPLATE)
    app.add_template("people", USER_LIST_TEMPLATE)

    def load_user(user_id):
        with use_form(form):
            return HealthUser.objects.get(jid=user_id)

    app.auth.set_user_loader(load_user)

    @app.route("/login", methods=("POST",))
    def login(request):
        user = HealthUser.objects.get(name=request.form("username"))
        if user is None:
            return Response.forbidden("unknown user")
        app.auth.force_login(request.session, user.jid, request.form("username"))
        return Response.redirect("/records")

    @app.route("/records", methods=("GET",), template="records")
    def all_records(request):
        """The stress-test page of Figure 9(b): every record in the system."""
        return {"records": HealthRecord.objects.all().fetch()}

    @app.route("/record/<jid>", methods=("GET",), template="record")
    def record_detail(request):
        return {"record": HealthRecord.objects.get(jid=int(request.param("jid")))}

    @app.route("/people", methods=("GET",), template="people")
    def directory(request):
        return {"people": HealthUser.objects.all().fetch()}

    @app.route("/record", methods=("POST",))
    def add_record(request):
        if request.user is None or getattr(request.user, "role", "") != "doctor":
            return Response.forbidden("doctors only")
        HealthRecord.objects.create(
            patient_id=int(request.form("patient")),
            doctor=request.user,
            diagnosis=request.form("diagnosis", ""),
            notes=request.form("notes", ""),
            date=datetime.datetime(2026, 6, 14),
        )
        return Response.redirect("/records")

    @app.route("/waiver", methods=("POST",))
    def add_waiver(request):
        if request.user is None or getattr(request.user, "role", "") != "patient":
            return Response.forbidden("patients only")
        Waiver.objects.create(patient=request.user, insurer_id=int(request.form("insurer")))
        return Response.redirect("/records")

    return app
