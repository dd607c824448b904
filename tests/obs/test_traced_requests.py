"""End-to-end tracing through the conference application.

The acceptance path of the observability subsystem: a traced ``view_all``
request on the conf app yields a span tree with per-statement SQL timings
and non-zero counters for policy evaluations, facet rows and worlds merged,
and the ``/metrics`` + ``/debug/trace/<id>`` endpoints serve what the trace
recorded.
"""

import json

import pytest

from repro import obs
from repro.apps.conf import build_conf_app, seed_conference, setup_conf
from repro.db.engine import Database
from repro.db.sqlite_backend import SqliteBackend
from repro.web import TestClient
from repro.web.obs import add_observability_routes


@pytest.fixture
def conf():
    database = Database(SqliteBackend())
    form = setup_conf(database)
    created = seed_conference(form, papers=6, users=6, pc_members=3)
    app = add_observability_routes(build_conf_app(form))
    yield form, created, app
    from repro.apps.conf import ConferencePhase

    ConferencePhase.reset()
    database.close()


def _spans(root):
    yield root
    for child in root.children:
        yield from _spans(child)


def test_traced_view_all_yields_spans_sql_timings_and_counters(conf):
    _form, created, app = conf
    client = TestClient(app)
    author = created["users"][0]
    client.force_login(author.jid, author.name)
    with obs.tracing():
        response = client.get("/papers")
        assert response.ok
        trace_id = response.headers["X-Trace-Id"]
        trace = obs.get_trace(trace_id)
    assert trace is not None and trace.name == "GET /papers"
    names = [span.name for span in _spans(trace.root)]
    assert "web.view" in names and "web.render" in names
    assert "form.fetch" in names
    sql_leaves = [span for span in _spans(trace.root) if span.name == "db.sql"]
    assert sql_leaves, "expected per-statement db.sql leaf spans"
    for leaf in sql_leaves:
        assert leaf.attributes["sql"]
        assert leaf.duration is not None and leaf.duration >= 0
    # The faceted-execution cost counters of the request (pruned path).
    assert trace.counters["policy.evaluations"] > 0
    assert trace.counters["facet.rows.unmarshalled"] > 0
    assert trace.counters["labels.resolved"] > 0
    assert trace.counters["db.statements"] == len(sql_leaves)
    assert trace.counters["web.requests"] == 1


def test_anonymous_view_all_counts_worlds_merged(conf):
    _form, _created, app = conf
    client = TestClient(app)
    with obs.tracing():
        response = client.get("/papers")
        assert response.ok
        trace = obs.get_trace(response.headers["X-Trace-Id"])
    # No viewer: the fetch stays faceted and concretisation at render time
    # merges per-world values and evaluates policies.
    assert trace.counters["worlds.merged"] > 0
    assert trace.counters["policy.evaluations"] > 0


def test_untraced_requests_carry_no_trace_header(conf):
    _form, created, app = conf
    client = TestClient(app)
    response = client.get("/papers")
    assert response.ok
    assert "X-Trace-Id" not in response.headers


def test_metrics_endpoint_serves_counters_and_cache_stats(conf):
    _form, _created, app = conf
    client = TestClient(app)
    with obs.tracing():
        client.get("/papers")
    payload = json.loads(client.get("/metrics").body)
    assert payload["enabled"] is False  # tracing() restored the disabled state
    assert payload["counters"]["web.requests"] >= 1
    assert payload["counters"]["db.statements"] >= 1
    # The conf FORM registered its caches on construction.
    assert payload["caches"]["sources"] >= 1
    assert set(payload["caches"]["layers"]) == {"queries", "labels"}
    assert payload["traces"], "recent-trace index should list the traced request"


def test_debug_trace_endpoint_serves_the_span_tree(conf):
    _form, _created, app = conf
    client = TestClient(app)
    with obs.tracing():
        trace_id = client.get("/papers").headers["X-Trace-Id"]
    response = client.get(f"/debug/trace/{trace_id}")
    assert response.ok
    assert response.headers["Content-Type"].startswith("application/json")
    payload = json.loads(response.body)
    assert payload["trace_id"] == trace_id
    assert payload["counters"]["facet.rows.unmarshalled"] > 0
    spans = payload["spans"]
    assert spans["name"] == "GET /papers"
    assert any(child["name"] == "web.view" for child in spans["children"])


def test_debug_trace_unknown_id_is_404(conf):
    _form, _created, app = conf
    client = TestClient(app)
    response = client.get("/debug/trace/deadbeef")
    assert response.status == 404
    assert json.loads(response.body) == {"error": "unknown trace id"}
