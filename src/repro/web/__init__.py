"""A small model-view-controller web framework.

Jacqueline is "a web framework based on Python's Django framework"; the
relevant pieces for the paper's evaluation are the MVC structure (models with
policies, controller views, template rendering), session-based
authentication, and the point where the framework resolves faceted values
for the logged-in viewer.  This package provides those pieces:

* :mod:`repro.web.http` -- request/response objects;
* :mod:`repro.web.routing` -- URL routing with path parameters;
* :mod:`repro.web.templates` -- a tiny template engine (variables, ``for``,
  ``if``), each template compiled once to one Python function;
* :mod:`repro.web.sessions` / :mod:`repro.web.auth` -- cookie-less sessions
  and a user store;
* :mod:`repro.web.app` -- the application object.  ``JacquelineApp`` binds a
  FORM, sets the session user as the speculated viewer on "get" requests
  (Early Pruning) and concretises every value handed to a template;
  ``BaselineApp`` provides the same plumbing without any of that, for the
  hand-coded-policy comparison;
* :mod:`repro.web.testclient` -- in-process clients used by the examples,
  tests and benchmarks (the stand-in for the paper's FunkLoad HTTP driver);
* :mod:`repro.web.wsgi` / :mod:`repro.web.serve` -- the serving layer:
  a WSGI adapter for any WSGI server plus a bundled threaded server for
  zero-dependency local runs.
"""

from repro.web.http import HttpError, Request, Response
from repro.web.routing import Route, Router
from repro.web.templates import Template, render_template
from repro.web.sessions import Session, SessionStore
from repro.web.auth import AuthenticationError, Authenticator
from repro.web.app import Application, BaselineApp, JacquelineApp
from repro.web.testclient import TestClient, WsgiClient
from repro.web.wsgi import SESSION_COOKIE, WsgiAdapter
from repro.web.serve import BackgroundServer, ThreadingWSGIServer, make_threaded_server, serve

__all__ = [
    "Request",
    "Response",
    "HttpError",
    "Router",
    "Route",
    "Template",
    "render_template",
    "Session",
    "SessionStore",
    "Authenticator",
    "AuthenticationError",
    "Application",
    "JacquelineApp",
    "BaselineApp",
    "TestClient",
    "WsgiClient",
    "WsgiAdapter",
    "SESSION_COOKIE",
    "BackgroundServer",
    "ThreadingWSGIServer",
    "make_threaded_server",
    "serve",
]
