"""Observability endpoints: ``/metrics`` and ``/debug/trace/<trace_id>``.

:func:`add_observability_routes` mounts two JSON endpoints on any
:class:`~repro.web.app.Application` (both stacks work -- the registry is
process-wide):

* ``GET /metrics`` -- the :func:`repro.obs.snapshot` payload: counter
  totals and an index of recent traces;
* ``GET /debug/trace/<trace_id>`` -- one stored trace as its full span
  tree (the id a traced response returns in its ``X-Trace-Id`` header).

The endpoints only *read* the registry; enabling tracing stays an explicit
operator decision (``repro.obs.enable()``, or ``--trace`` on
``python -m repro.web.serve``).
"""

from __future__ import annotations

import json

from repro import obs
from repro.web.app import Application
from repro.web.http import Request, Response

#: Content type of both endpoints' payloads.
JSON_CONTENT_TYPE = "application/json; charset=utf-8"


def json_response(payload: dict, status: int = 200) -> Response:
    """A JSON response (sorted keys, so payloads diff cleanly in tests)."""
    return Response(
        body=json.dumps(payload, sort_keys=True, default=str),
        status=status,
        headers={"Content-Type": JSON_CONTENT_TYPE},
    )


def add_observability_routes(app: Application) -> Application:
    """Mount ``/metrics`` and ``/debug/trace/<trace_id>`` on ``app``."""

    @app.route("/metrics", methods=("GET",))
    def metrics(request: Request) -> Response:
        return json_response(obs.snapshot())

    @app.route("/debug/trace/<trace_id>", methods=("GET",))
    def debug_trace(request: Request) -> Response:
        trace = obs.get_trace(request.param("trace_id"))
        if trace is None:
            return json_response({"error": "unknown trace id"}, status=404)
        return json_response(trace.to_dict())

    return app
