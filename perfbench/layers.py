"""Per-layer timing wrappers installed from outside the program.

A :class:`LayerTracer` replaces public functions of the ``repro`` modules
with timing wrappers.  Each wrapper charges its call's *self time* -- the
call's interval minus the intervals of wrapped calls nested inside it -- to
one layer, so the self times of all layers never overlap and, summed over
one operation, never exceed that operation's wall time.

Nothing here edits program code: the wrappers are installed for a traced
run only and :meth:`LayerTracer.uninstall` puts every original back.
Functions that callers import by name are replaced under the importing
module's name: ``repro.web.app.render_template``,
``repro.form.manager.evaluate_policy``, ``repro.db.table.choose_plan`` and
``repro.analysis.classify.compile_policy``.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple

import repro.analysis.classify
import repro.analysis.symbolic
import repro.db.table
import repro.form.manager
import repro.web.app
from repro.core.runtime import JeevesRuntime
from repro.db.memory_backend import MemoryBackend
from repro.db.sqlite_backend import SqliteBackend
from repro.form.manager import Manager, QuerySet
from repro.form.model import JModel
from repro.web.app import Application, JacquelineApp

#: (owner, attribute, layer) for every wrapped method or module-level name.
_TARGETS: List[Tuple[Any, str, str]] = [
    (Application, "handle", "web.handle"),
    (repro.web.app, "render_template", "web.render"),
    (JeevesRuntime, "concretize", "core.concretize"),
    # The web-side walk that hands each faceted context value to the runtime.
    (JacquelineApp, "_prepare_context", "core.concretize"),
    (QuerySet, "fetch", "form.read"),
    (QuerySet, "count", "form.read"),
    (QuerySet, "exists", "form.read"),
    (QuerySet, "aggregate", "form.read"),
    (Manager, "get", "form.read"),
    (QuerySet, "update", "form.write"),
    (QuerySet, "delete", "form.write"),
    (Manager, "create", "form.write"),
    (Manager, "bulk_create", "form.write"),
    (JModel, "save", "form.write"),
    (repro.form.manager, "evaluate_policy", "form.policy"),
    (repro.db.table, "choose_plan", "db.plan"),
    (repro.analysis.symbolic, "compile_policy", "analysis.compile"),
    (repro.analysis.classify, "compile_policy", "analysis.compile"),
]
for _backend in (MemoryBackend, SqliteBackend):
    _TARGETS += [(_backend, name, "db.read") for name in ("execute", "aggregate")]
    _TARGETS += [
        (_backend, name, "db.write")
        for name in ("execute_update", "execute_delete", "insert_many", "replace_rows")
    ]

#: Layers whose calls count as FORM calls (for the render N+1 count).
FORM_LAYERS = ("form.read", "form.write")


class _Frame:
    __slots__ = ("layer", "child", "sql_before")

    def __init__(self, layer: str, sql_before: float) -> None:
        self.layer = layer
        self.child = 0.0
        self.sql_before = sql_before


class LayerTracer:
    """Self time and call counts per layer, plus per-operation totals."""

    def __init__(self) -> None:
        self._stack: List[_Frame] = []
        self._originals: List[Tuple[Any, str, Any, bool]] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: FORM calls issued directly from inside ``render_template``.
        self.render_form_calls = 0
        #: statement time reported by the backends' observer hook.
        self.sql_s = 0.0
        self.statements = 0
        self.rows = 0
        #: ``db.read`` self time outside the statement intervals.
        self.decode_s = 0.0
        self._op_self = 0.0

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        for owner, name, layer in _TARGETS:
            in_dict = name in vars(owner)
            original = getattr(owner, name)
            self._originals.append((owner, name, vars(owner).get(name), in_dict))
            setattr(owner, name, self._wrap(layer, original))

    def uninstall(self) -> None:
        for owner, name, original, in_dict in reversed(self._originals):
            if in_dict:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._originals.clear()

    def wrap_views(self, app: Application) -> None:
        """Time every view on ``app.router`` as the ``web.view`` layer."""
        for route in app.router.routes():
            route.view = self._wrap("web.view", route.view)

    def observe(self, backend: Any) -> None:
        """Collect statement events from one backend."""
        backend.add_statement_observer(self._on_statement)

    def _on_statement(self, event: Any) -> None:
        self.statements += 1
        self.rows += event.rows
        self.sql_s += event.duration

    # -- the wrapper ---------------------------------------------------------------

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack
            if layer in FORM_LAYERS:
                enclosing = next(
                    (f.layer for f in reversed(stack)
                     if f.layer == "web.render" or f.layer in FORM_LAYERS),
                    None,
                )
                if enclosing == "web.render":
                    tracer.render_form_calls += 1
            frame = _Frame(layer, tracer.sql_s)
            stack.append(frame)
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                stack.pop()
                own = elapsed - frame.child
                tracer.self_s[layer] += own
                tracer.calls[layer] += 1
                tracer._op_self += own
                if layer == "db.read" and not any(f.layer == "db.read" for f in stack):
                    tracer.decode_s += elapsed - (tracer.sql_s - frame.sql_before)
                if stack:
                    stack[-1].child += elapsed

        return timed

    # -- per-operation bookkeeping ----------------------------------------------------

    def begin_op(self) -> None:
        self._op_self = 0.0

    def op_self_s(self) -> float:
        """Summed self time of every wrapped call since :meth:`begin_op`."""
        return self._op_self

    def reset(self) -> None:
        self.self_s.clear()
        self.calls.clear()
        self.render_form_calls = 0
        self.sql_s = 0.0
        self.statements = 0
        self.rows = 0
        self.decode_s = 0.0
