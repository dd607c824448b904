"""A zero-dependency threaded serving layer for local runs.

``wsgiref``'s reference server is single-threaded; mixing in
``socketserver.ThreadingMixIn`` gives one worker thread per connection --
enough to exercise the paper's policy semantics under real concurrency
without any third-party server.  For production-style deployments the same
:class:`~repro.web.wsgi.WsgiAdapter` runs unchanged under gunicorn/uwsgi
(see :func:`demo_app` and the README).

Three entry points:

* :func:`serve` -- blocking ``serve_forever`` for ``python -m repro.web.serve``;
* :class:`BackgroundServer` -- context manager starting the server on a
  daemon thread (tests and benchmarks);
* :func:`demo_app` -- build a seeded demo application as a WSGI callable,
  e.g. ``gunicorn --threads 8 'repro.web.serve:demo_app()'``.
"""

from __future__ import annotations

import argparse
import socketserver
import threading
from typing import Any, Optional, Union
from wsgiref.simple_server import WSGIRequestHandler, WSGIServer, make_server

from repro.db.engine import Database
from repro.form.context import FORM, set_default_form
from repro.web.app import Application
from repro.web.wsgi import WsgiAdapter


class ThreadingWSGIServer(socketserver.ThreadingMixIn, WSGIServer):
    """A WSGI server with one worker thread per connection."""

    #: worker threads must not block interpreter shutdown
    daemon_threads = True
    #: avoid "address already in use" on quick restarts
    allow_reuse_address = True


class QuietRequestHandler(WSGIRequestHandler):
    """A request handler that does not log every request to stderr."""

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass


def make_threaded_server(
    app: Union[Application, WsgiAdapter],
    host: str = "127.0.0.1",
    port: int = 0,
    quiet: bool = True,
) -> WSGIServer:
    """A threaded WSGI server bound to ``host:port`` (0 picks a free port)."""
    wsgi_app = app if isinstance(app, WsgiAdapter) else WsgiAdapter(app)
    handler = QuietRequestHandler if quiet else WSGIRequestHandler
    return make_server(
        host, port, wsgi_app, server_class=ThreadingWSGIServer, handler_class=handler
    )


def serve(
    app: Union[Application, WsgiAdapter],
    host: str = "127.0.0.1",
    port: int = 8000,
    quiet: bool = False,
) -> None:
    """Serve an application until interrupted (blocking)."""
    server = make_threaded_server(app, host, port, quiet=quiet)
    bound_host, bound_port = server.server_address[:2]
    print(f"Serving on http://{bound_host}:{bound_port} (Ctrl-C to stop)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        pass
    finally:
        server.server_close()


class BackgroundServer:
    """Run an application on a daemon thread for the ``with`` block.

    >>> import urllib.request
    >>> from repro.apps.conf import build_conf_app, seed_conference, setup_conf
    >>> form = setup_conf()
    >>> _ = seed_conference(form, papers=2)
    >>> with BackgroundServer(build_conf_app(form)) as server:
    ...     with urllib.request.urlopen(server.url + "/papers", timeout=10) as response:
    ...         response.status
    200
    """

    def __init__(
        self,
        app: Union[Application, WsgiAdapter],
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._server = make_threaded_server(app, host, port)
        self.host, self.port = self._server.server_address[:2]
        self.url = f"http://{self.host}:{self.port}"
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="repro-web-serve", daemon=True
        )

    def __enter__(self) -> "BackgroundServer":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._server.shutdown()
        self._thread.join(timeout=10)
        self._server.server_close()


# -- demo applications (CLI and gunicorn entry points) ---------------------------------


def _is_empty(form: FORM) -> bool:
    return all(
        form.database.count(model._meta.table_name) == 0
        for model in form.registered_models()
    )


def _demo_parts(name: str):
    """(setup, seed, build) callables for a demo application."""
    if name == "conf":
        from repro.apps.conf import build_conf_app, seed_conference, setup_conf

        return (
            setup_conf,
            lambda form, n: seed_conference(form, papers=n, users=n, pc_members=4),
            build_conf_app,
        )
    if name == "health":
        from repro.apps.health import build_health_app, seed_health, setup_health

        return setup_health, lambda form, n: seed_health(form, patients=n), build_health_app
    if name == "course":
        from repro.apps.course import build_course_app, seed_courses, setup_courses

        return setup_courses, lambda form, n: seed_courses(form, courses=n), build_course_app
    raise ValueError(f"unknown demo application {name!r}")


def _build_demo(name: str, database: Optional[Database], seed_size: int) -> Application:
    from repro.web.obs import add_observability_routes

    setup, seed, build = _demo_parts(name)
    form = setup(database)
    # Seed only a fresh database: a reopened SQLite file keeps its data
    # (and FORM.register resumed its jid counters past the stored rows).
    if _is_empty(form):
        seed(form, seed_size)
    set_default_form(form)
    return add_observability_routes(build(form))


def demo_app(
    name: str = "conf", sqlite_path: Optional[str] = None, seed_size: int = 16
) -> WsgiAdapter:
    """A seeded demo application as a WSGI callable.

    ``gunicorn --threads 8 'repro.web.serve:demo_app()'`` serves the
    conference manager; pass ``sqlite_path`` for a WAL-mode file database
    shared by all worker threads.
    """
    database = Database.sqlite(sqlite_path) if sqlite_path else None
    return WsgiAdapter(_build_demo(name, database, seed_size))


def main(argv: Optional[list] = None) -> None:
    parser = argparse.ArgumentParser(description="Serve a demo application.")
    parser.add_argument("--app", default="conf", choices=("conf", "health", "course"))
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8000)
    parser.add_argument("--sqlite", default=None, metavar="PATH",
                        help="back the FORM with a WAL-mode SQLite file")
    parser.add_argument("--seed", type=int, default=16, metavar="N",
                        help="number of seeded records (papers/patients/courses)")
    parser.add_argument("--trace", action="store_true",
                        help="enable repro.obs tracing (per-request span trees "
                             "on /debug/trace/<id>, counters on /metrics)")
    args = parser.parse_args(argv)
    if args.trace:
        from repro import obs

        obs.enable()
    serve(demo_app(args.app, args.sqlite, args.seed), args.host, args.port)


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    main()
