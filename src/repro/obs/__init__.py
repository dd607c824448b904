"""`repro.obs`: tracing, faceted-execution metrics and the metrics registry.

The paper's argument is about *where* policy enforcement costs live --
policy checks, facet blowup, early pruning.  This subsystem makes those
costs first-class observables:

* :mod:`repro.obs.trace` -- a thread-safe span tree with monotonic timings,
  scoped per request, near-zero-overhead while disabled;
* :mod:`repro.obs.metrics` -- typed counters whose glossary maps each name
  to the paper concept it measures (policy evaluations, facet rows
  unmarshalled, worlds merged, ...);
* :mod:`repro.obs.registry` -- the process-wide registry aggregating recent
  traces and counter totals into one JSON snapshot (the ``/metrics``
  endpoint).

Everything is stdlib-only and imported by the db/form/web layers; this
package imports nothing from them.
"""

from repro.obs.metrics import COUNTER_GLOSSARY, add, totals
from repro.obs.registry import ObsRegistry, get_registry
from repro.obs.trace import (
    NOOP,
    Span,
    Trace,
    active,
    current_span,
    current_trace,
    disable,
    enable,
    enabled,
    event,
    span,
    trace,
    tracing,
)

__all__ = [
    "COUNTER_GLOSSARY",
    "NOOP",
    "ObsRegistry",
    "Span",
    "Trace",
    "active",
    "add",
    "current_span",
    "current_trace",
    "disable",
    "enable",
    "enabled",
    "event",
    "get_registry",
    "get_trace",
    "record_statement",
    "reset",
    "snapshot",
    "span",
    "totals",
    "trace",
    "tracing",
]


def get_trace(trace_id: str):
    """A finished trace by id, or ``None`` (ring buffer of recent traces)."""
    return get_registry().get_trace(trace_id)


def snapshot() -> dict:
    """The registry's JSON-ready metrics snapshot."""
    return get_registry().snapshot()


def reset() -> None:
    """Clear counter totals and stored traces (tests and benchmarks)."""
    totals.reset()
    get_registry().reset()


def record_statement(event_) -> None:
    """Fold one backend statement event into the active trace.

    Called by :meth:`repro.db.backend.Backend._notify_statement` after the
    explicit observers; appends a ``db.sql`` leaf span carrying the rendered
    SQL and measured duration, and bumps the ``db.*`` counters.  No-op when
    no trace is in flight.
    """
    if not active():
        return
    parent = current_span()
    if parent is not None:
        leaf = Span("db.sql", {"kind": event_.kind, "sql": event_.sql, "rows": event_.rows})
        leaf.started = leaf.started - (event_.duration or 0)
        leaf.duration = event_.duration
        parent.children.append(leaf)
    add("db.statements")
    add("db.rows", event_.rows)
