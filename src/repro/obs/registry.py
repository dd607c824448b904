"""The process-wide observability registry.

One place aggregating everything the instrumentation produces: a bounded
ring of recent traces (served by ``/debug/trace/<id>``) and the counter
totals, which :meth:`ObsRegistry.snapshot` serves together.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, List, Optional

#: How many finished traces the ring buffer keeps.
TRACE_RING_SIZE = 256


class ObsRegistry:
    """Recent traces + counter totals."""

    def __init__(self) -> None:
        self._traces: "OrderedDict[str, Any]" = OrderedDict()
        self._lock = threading.Lock()

    # -- traces ------------------------------------------------------------------

    def store_trace(self, trace: Any) -> None:
        with self._lock:
            self._traces[trace.trace_id] = trace
            while len(self._traces) > TRACE_RING_SIZE:
                self._traces.popitem(last=False)

    def get_trace(self, trace_id: str) -> Optional[Any]:
        with self._lock:
            return self._traces.get(trace_id)

    def recent_traces(self, count: int = 20) -> List[Any]:
        with self._lock:
            return list(self._traces.values())[-count:]

    # -- the JSON snapshot ---------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """The ``/metrics`` payload: counters and the recent trace index."""
        # Import the submodules directly: the package namespace rebinds
        # ``trace`` to the context-manager function of the same name.
        from repro.obs.metrics import totals
        from repro.obs.trace import enabled

        return {
            "enabled": enabled(),
            "counters": totals.snapshot(),
            "traces": [
                {
                    "trace_id": item.trace_id,
                    "name": item.name,
                    "duration": item.duration,
                }
                for item in self.recent_traces()
            ],
        }

    def reset(self) -> None:
        with self._lock:
            self._traces.clear()


_registry = ObsRegistry()


def get_registry() -> ObsRegistry:
    """The process-wide registry singleton."""
    return _registry
