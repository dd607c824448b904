"""Typed counters mapping runtime work to the paper's cost model.

Every counter name is declared in :data:`COUNTER_GLOSSARY` with the paper
concept it measures; :func:`add` bumps the process-wide totals and -- when a
trace is in flight on the calling thread -- the current trace and span, so
per-request numbers and global numbers always add up.

While tracing is disabled :func:`add` returns after one flag check and
allocates nothing:

>>> from repro import obs
>>> obs.disable()
>>> before = totals.snapshot()
>>> add("policy.evaluations")
>>> totals.snapshot() == before
True
"""

from __future__ import annotations

import threading
from typing import Dict

# Bind the submodule, not the package attribute: ``repro.obs`` re-exports the
# ``trace`` context manager under the same name, shadowing the module (and
# ``import ... as`` resolves through the package attribute too).
import repro.obs.trace
import sys

_trace = sys.modules["repro.obs.trace"]

#: counter name -> the paper concept it measures.
COUNTER_GLOSSARY: Dict[str, str] = {
    "policy.evaluations": "policy closures run (Section 3.2 policy checks)",
    "labels.resolved": "label polarities computed for a viewer (Early Pruning)",
    "facet.rows.unmarshalled": "jid/jvars rows rebuilt into instances (Section 3.1.1)",
    "facet.rows.expanded": "facet rows produced by save-side expansion (Table 1)",
    "worlds.merged": "per-assignment partitions merged into faceted results",
    "pc.guard.rewrites": "pc-guarded facet-row rewrites (Section 2.2 writes)",
    "writes.fast_path": "bulk writes compiled to one UPDATE/DELETE statement",
    "writes.fallback": "bulk writes taking the batched facet rewrite",
    "writes.forced_fallback.read_set": (
        "eligible fast-path updates forced to the batched rewrite because "
        "a public-facet method reads an assigned column (repro.analysis)"
    ),
    "plan.delete_guarded_pushdown": (
        "pc-guarded deletes compiled to one guarded UPDATE statement "
        "(pc labels statically absent from the table's jvars)"
    ),
    "plan.bounded": "bounded reads compiled to the jid-subselect pushdown",
    "plan.keys": "projected record-key queries (write fallback jid scans)",
    "plan.batched_load": (
        "batched-load statements: one pruned IN (...) fetch answering a "
        "per-record lookup for every member of a viewer-context result list"
    ),
    "plan.batched_load.fallback.multiple_matches": (
        "batched lookups sent to the per-record get() because their key has "
        "several visible matches (get() picks one in engine order)"
    ),
    "plan.batched_load.fallback.resolving": (
        "batched lookups sent to the per-record get() because a label "
        "resolution is in flight and the target model may carry labels"
    ),
    "plan.batched_load.fallback.stale": (
        "batched lookups sent to the per-record get() because a write, "
        "schema change or policy-epoch bump followed the batched load"
    ),
    "plan.aggregate_pushdown": "aggregates compiled to one grouped statement",
    "plan.update_pushdown": "updates compiled to one UPDATE statement",
    "plan.delete_pushdown": "deletes compiled to one DELETE statement",
    "plan.policy_pushdown": (
        "pruned reads whose pruning predicate was compiled into the SQL "
        "statement (Early Pruning in SQL, repro.form.pushdown)"
    ),
    "plan.policy_pushdown.opaque_fallback": (
        "pruned reads kept on the Python path because a policied model's "
        "profile is opaque: several policy groups, or a compiled predicate "
        "that contains TOP (repro.analysis.symbolic)"
    ),
    "plan.policy_pushdown.fallback.bind": (
        "pruned reads sent to the Python path because the inline predicate "
        "does not bind for the viewer (attribute, kind or evaluation error)"
    ),
    "plan.policy_pushdown.fallback.facet_rows": (
        "pruned reads sent to the Python path because a table holds facet "
        "rows the inline branch test cannot read, or probing them failed"
    ),
    "plan.index.hash_probe": (
        "memory-engine reads served by a hash-index bucket probe "
        "(=, IN, IS NULL on an indexed column)"
    ),
    "plan.index.range_probe": (
        "memory-engine reads served by an ordered-index range probe "
        "(<, <=, >, >=, BETWEEN, prefix LIKE on an ordered column)"
    ),
    "plan.index.ordered_scan": (
        "memory-engine reads served by an in-order ordered-index walk "
        "(ORDER BY without a sort, early exit under LIMIT)"
    ),
    "plan.index.full_scan": (
        "memory-engine reads where the cost model chose (or was forced "
        "to) a full heap scan"
    ),
    "db.statements": "SQL statements executed by the backends",
    "db.rows": "rows returned or changed by those statements",
    "web.requests": "requests dispatched by the web applications",
    "web.wsgi.requests": "requests arriving through the WSGI adapter",
}


class Totals:
    """Thread-safe process-wide counter totals."""

    def __init__(self) -> None:
        self._values: Dict[str, float] = {}
        self._lock = threading.Lock()

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self._values[name] = self._values.get(name, 0) + value

    def snapshot(self) -> Dict[str, float]:
        with self._lock:
            return dict(self._values)

    def get(self, name: str) -> float:
        with self._lock:
            return self._values.get(name, 0)

    def reset(self) -> None:
        with self._lock:
            self._values.clear()


#: The process-wide totals (reset via :func:`repro.obs.reset`).
totals = Totals()


def add(name: str, value: float = 1) -> None:
    """Bump a counter (global totals + current trace + current span).

    No-op while tracing is disabled, so call sites on hot paths pay one
    flag check.  Unknown names are accepted (applications may count their
    own work) but the core instrumentation sticks to the glossary.
    """
    if not _trace._enabled:
        return
    totals.add(name, value)
    current = _trace.current_trace()
    if current is not None:
        current.bump(name, value)
        span = _trace.current_span()
        if span is not None:
            span.bump(name, value)
