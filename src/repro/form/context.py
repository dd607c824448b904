"""FORM context: which database/runtime is active, and who the viewer is.

A :class:`FORM` bundles a relational :class:`~repro.db.engine.Database` with
a :class:`~repro.core.runtime.JeevesRuntime`.  Model managers resolve the
active FORM through a thread-local stack so the same model classes can be
re-pointed at fresh databases between tests and benchmark iterations.

The viewer context implements the Early Pruning hook: inside
``with viewer_context(user):`` queries resolve policies immediately for
``user`` and fetch only the visible facet rows (Section 3.2).  Outside a
viewer context, queries build full faceted results and policies are resolved
only at concretisation.
"""

from __future__ import annotations

import contextlib
import functools
import threading
from typing import Any, Dict, Iterator, List, Optional, TYPE_CHECKING

from repro.cache.config import FormCaches
from repro.core.runtime import JeevesRuntime
from repro.db.engine import Database
from repro.db.query import Aggregate, Query

if TYPE_CHECKING:  # pragma: no cover
    from repro.form.model import JModel


class FORM:
    """A faceted ORM instance: database + runtime + registered models.

    The FORM creates and owns its runtime, whose policy environment
    resolves every label named ``Table.jid.group`` through the model this
    FORM registered for ``Table`` (:func:`repro.form.manager.label_policy`),
    so concretisation needs no per-read policy registration.  Every read
    runs its statement against the database's current rows: nothing is
    cached across reads.
    """

    def __init__(self, database: Optional[Database] = None) -> None:
        from repro.form.manager import label_policy  # manager imports this module

        self.database = database if database is not None else Database()
        self.runtime = JeevesRuntime()
        self.runtime.policy_env.label_policy = functools.partial(label_policy, self)
        #: table name -> the model registered for it: the one source of a
        #: FORM label's policy
        self._models: Dict[str, type] = {}
        self._jid_counters: Dict[str, int] = {}
        #: serialises jid allocation across request worker threads
        self._jid_lock = threading.Lock()
        #: striped locks for check-then-create sections (get_or_create):
        #: same-key callers serialise, disjoint keys mostly proceed in
        #: parallel instead of funnelling through one FORM-wide lock
        self._creation_locks = tuple(threading.RLock() for _ in range(16))
        #: serialises the delete+reinsert of a record's facet rows on update
        self._save_lock = threading.RLock()
        #: per-thread state for the policy re-entrancy guard: a label being
        #: resolved is optimistically visible only within the thread (and
        #: hence the resolution cycle) doing the resolving -- a second
        #: request thread must evaluate the policy for real.
        self._resolving_local = threading.local()
        #: read only by perfbench; its two layers always read zero
        self.caches = FormCaches()
        #: compile Early Pruning into SQL where a model's policy renders
        #: inline (:mod:`repro.form.pushdown`); flip off to force the
        #: Python pruning path -- the differential-testing oracle.
        self.policy_pushdown_enabled = True

    # -- model registration -------------------------------------------------------

    def register(self, model: type) -> None:
        """Create the model's augmented table in this FORM's database.

        When the table already holds rows (a persistent database reopened by
        a fresh process), the jid counter resumes past the stored maximum so
        new records can never collide with existing ones.
        """
        options = model._meta
        self.database.create_table(options.table_schema())
        self._models[options.table_name] = model
        with self._jid_lock:
            self._jid_counters.setdefault(options.table_name, 0)
        try:
            stored_max = self.database.aggregate(
                Query(table=options.table_name).select_aggregates(Aggregate("MAX", "jid"))
            )
        except Exception:
            # The table pre-exists without the jid meta-data column (legacy
            # schema awaiting migration): SQLITE_DQS=0 builds raise here.
            stored_max = None
        # Non-numeric results cover the same legacy case on permissive
        # SQLite builds, which resolve the unknown quoted identifier to the
        # string 'jid' instead of raising.
        if isinstance(stored_max, (int, float)) and not isinstance(stored_max, bool):
            self.note_jid(options.table_name, int(stored_max))

    def register_all(self, models: List[type]) -> None:
        for model in models:
            self.register(model)

    def registered_models(self) -> List[type]:
        return list(self._models.values())

    def model_for(self, table_name: str) -> type:
        """The model registered for ``table_name``, whose policies decide
        the table's labels; ``LookupError`` for a table with none."""
        if table_name not in self._models:
            raise LookupError(f"table {table_name!r} has no model registered with this FORM")
        return self._models[table_name]

    # -- jid allocation --------------------------------------------------------------

    def next_jid(self, table_name: str) -> int:
        """Allocate the next facet identifier for a table (thread-safe)."""
        with self._jid_lock:
            current = self._jid_counters.get(table_name, 0) + 1
            self._jid_counters[table_name] = current
            return current

    def creation_lock(self, key: Any) -> Any:
        """The lock serialising get_or_create for one filter key (striped)."""
        return self._creation_locks[hash(key) % len(self._creation_locks)]

    def note_jid(self, table_name: str, jid: int) -> None:
        """Record an externally chosen jid so future allocations stay unique."""
        with self._jid_lock:
            if jid > self._jid_counters.get(table_name, 0):
                self._jid_counters[table_name] = jid

    # -- convenience -----------------------------------------------------------------

    def clear(self) -> None:
        """Delete all rows and reset jid counters (schemas are kept)."""
        self.database.clear()
        self.runtime.reset()
        with self._jid_lock:
            for name in self._jid_counters:
                self._jid_counters[name] = 0


_state = threading.local()

#: The process-wide default FORM.  The bottom of every thread's form stack is
#: this shared instance, so a worker thread spawned by a WSGI server (or any
#: ``threading.Thread``) sees the same database as the main thread instead of
#: silently minting a private empty FORM.  Created lazily; replaced with
#: :func:`set_default_form`.
_default_form: Optional[FORM] = None
_default_form_lock = threading.Lock()


def _get_default_form() -> FORM:
    global _default_form
    with _default_form_lock:
        if _default_form is None:
            _default_form = FORM()
        return _default_form


def set_default_form(form: FORM) -> FORM:
    """Install ``form`` as the process-wide default FORM.

    Threads that have not pushed their own FORM (via :func:`use_form` or
    :func:`set_form`) resolve :func:`current_form` to this instance.  Threads
    whose stack was already initialised keep their current binding; serving
    layers should therefore install the default before spawning workers (or
    rely on the per-request ``use_form`` the applications perform anyway).
    """
    global _default_form
    with _default_form_lock:
        _default_form = form
    return form


def _form_stack() -> List[FORM]:
    stack = getattr(_state, "form_stack", None)
    if stack is None:
        stack = [_get_default_form()]
        _state.form_stack = stack
    return stack


def current_form() -> FORM:
    """The FORM model managers are currently bound to."""
    return _form_stack()[-1]


@contextlib.contextmanager
def use_form(form: FORM) -> Iterator[FORM]:
    """Temporarily make ``form`` the active FORM (thread-local)."""
    stack = _form_stack()
    stack.append(form)
    try:
        yield form
    finally:
        stack.pop()


def set_form(form: FORM) -> None:
    """Install ``form`` as the active FORM for this thread (not scoped)."""
    _state.form_stack = [form]


def _viewer_stack() -> List[Any]:
    stack = getattr(_state, "viewer_stack", None)
    if stack is None:
        stack = []
        _state.viewer_stack = stack
    return stack


def current_viewer() -> Any:
    """The speculated viewer for Early Pruning, or ``None``."""
    stack = _viewer_stack()
    return stack[-1] if stack else None


@contextlib.contextmanager
def viewer_context(viewer: Any) -> Iterator[Any]:
    """Speculate on the viewer (the session user) for the enclosed queries.

    ``viewer_context(None)`` can be used to explicitly disable pruning inside
    an outer viewer context (e.g. for "post" handlers that write shared
    state).
    """
    stack = _viewer_stack()
    stack.append(viewer)
    try:
        yield viewer
    finally:
        stack.pop()
