"""Application objects: request dispatch plus framework policy handling.

:class:`Application` owns the router, session store and authenticator and
turns view return values into responses.  Two subclasses bind the two
stacks compared in the paper:

* :class:`JacquelineApp` holds a :class:`~repro.form.context.FORM`.  Every
  request runs with that FORM active; "get" requests additionally speculate
  on the session user as the viewer (Early Pruning, Section 3.2).  Values
  placed in a template context are concretised for the logged-in viewer
  before rendering, so views stay policy-agnostic.
* :class:`BaselineApp` holds a plain :class:`~repro.baseline.model.BaselineDB`;
  views receive raw data and are themselves responsible for enforcing
  policies (the hand-coded-check comparison of Figure 8).
"""

from __future__ import annotations

import contextlib
from typing import Any, Callable, Dict, Tuple

from repro import obs
from repro.core.facets import Facet
from repro.form.context import FORM, use_form, viewer_context
from repro.baseline.model import BaselineDB, use_baseline_db
from repro.web.auth import Authenticator
from repro.web.http import HttpError, Request, Response
from repro.web.routing import Route, Router
from repro.web.sessions import SessionStore
from repro.web.templates import render_template


class Application:
    """Routing, sessions and view-result handling shared by both stacks."""

    def __init__(self, name: str = "app") -> None:
        self.name = name
        self.router = Router()
        self.sessions = SessionStore()
        self.auth = Authenticator()
        self.templates: Dict[str, str] = {}

    # -- configuration -----------------------------------------------------------

    def route(self, pattern: str, methods: Tuple[str, ...] = ("GET", "POST"), template: str = ""):
        """Decorator registering a view."""
        return self.router.route(pattern, methods=methods, template=template)

    def add_template(self, name: str, source: str) -> None:
        self.templates[name] = source

    def wsgi(self) -> Any:
        """This application as a WSGI callable (see :mod:`repro.web.wsgi`).

        ``handle`` is safe to call from concurrent worker threads: per-request
        ambient state (active FORM, speculated viewer, path conditions) lives
        in thread-local stacks entered by ``_request_context``.
        """
        from repro.web.wsgi import WsgiAdapter  # deferred: wsgi imports app

        return WsgiAdapter(self)

    # -- request handling -----------------------------------------------------------

    def handle(self, request: Request) -> Response:
        """Dispatch one request to its view and normalise the result.

        Each request runs as one observability trace (when tracing is
        enabled): the span tree covers view execution, concretisation and
        template rendering, every backend statement appears as a ``db.sql``
        leaf, and the response carries an ``X-Trace-Id`` header pointing at
        the stored trace (``/debug/trace/<id>``).
        """
        with obs.trace(f"{request.method} {request.path}", app=self.name) as trace_:
            obs.add("web.requests")
            response = self._handle(request)
            if trace_ is not None:
                trace_.annotate(status=response.status)
                response.headers.setdefault("X-Trace-Id", trace_.trace_id)
            return response

    def _handle(self, request: Request) -> Response:
        request.session = self.sessions.get_or_create(request.session_id)
        request.session_id = request.session.session_id
        request.user = self.auth.user_for(request.session)
        route = self.router.resolve(request)
        if route is None:
            return Response.not_found(f"no route for {request.method} {request.path}")
        try:
            with self._request_context(request):
                with obs.span("web.view", route=route.name):
                    result = route.view(request)
                response = self._to_response(request, route, result)
        except HttpError as error:
            response = Response(body=error.message, status=error.status)
        # A login view rotates the session id.
        request.session_id = request.session.session_id
        return response

    # -- hooks overridden by the concrete stacks ----------------------------------------

    @contextlib.contextmanager
    def _request_context(self, request: Request):
        """Ambient state active while the view runs."""
        yield

    def _prepare_context(self, request: Request, context: Dict[str, Any]) -> Dict[str, Any]:
        """Transform a view's template context before rendering."""
        return context

    # -- view-result handling --------------------------------------------------------------

    def _to_response(self, request: Request, route: Route, result: Any) -> Response:
        if isinstance(result, Response):
            return result
        if isinstance(result, tuple) and len(result) == 2:
            template_name, context = result
        elif isinstance(result, dict):
            template_name, context = route.template, result
        elif result is None:
            template_name, context = route.template, {}
        else:
            return Response(body=str(result))
        context = dict(context)
        context.setdefault("user", request.user)
        with obs.span("web.concretize"):
            context = self._prepare_context(request, context)
        source = self.templates.get(template_name, template_name)
        if not source:
            raise HttpError(500, f"view {route.name!r} returned no template")
        with obs.span("web.render", template=template_name):
            body = render_template(source, context)
        return Response(body=body, context=context)


class JacquelineApp(Application):
    """The policy-agnostic stack: FORM-backed, facets resolved by the framework."""

    def __init__(self, form: FORM, name: str = "jacqueline", early_pruning: bool = True) -> None:
        super().__init__(name)
        self.form = form
        #: Early Pruning toggle; Table 5 measures the difference.
        self.early_pruning = early_pruning

    @contextlib.contextmanager
    def _request_context(self, request: Request):
        with use_form(self.form):
            if self.early_pruning and request.is_get and request.user is not None:
                # Speculate on the session user as the viewer ("get" requests
                # read but do not change policy-relevant state).
                with viewer_context(request.user):
                    yield
            else:
                yield

    def _prepare_context(self, request: Request, context: Dict[str, Any]) -> Dict[str, Any]:
        """Concretise every faceted value for the logged-in viewer.

        This is the computation sink: policies are resolved here, not in the
        views, which is what makes Jacqueline views policy-agnostic.
        """
        prepared = {}
        for name, value in context.items():
            prepared[name] = self._concretize(value, request.user)
        return prepared

    def _concretize(self, value: Any, viewer: Any) -> Any:
        if isinstance(value, Facet):
            return self.form.runtime.concretize(value, viewer)
        if isinstance(value, list):
            return [self._concretize(item, viewer) for item in value]
        if isinstance(value, dict):
            return {key: self._concretize(item, viewer) for key, item in value.items()}
        return value


class BaselineApp(Application):
    """The hand-coded-policy stack: plain ORM, views enforce policies themselves."""

    def __init__(self, db: BaselineDB, name: str = "baseline") -> None:
        super().__init__(name)
        self.db = db

    @contextlib.contextmanager
    def _request_context(self, request: Request):
        with use_baseline_db(self.db):
            yield
