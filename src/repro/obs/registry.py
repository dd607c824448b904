"""The process-wide observability registry.

One place aggregating everything the instrumentation produces: a bounded
ring of recent traces (served by ``/debug/trace/<id>``), the counter totals,
and the cache layers' ``CacheStats`` -- every
:class:`~repro.cache.integration.FormCaches` registers itself on
construction (weakly, so test FORMs are collected normally) and
:meth:`ObsRegistry.snapshot` sums the live layers.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from typing import Any, Dict, List, Optional

#: How many finished traces the ring buffer keeps.
TRACE_RING_SIZE = 256

#: ``CacheStats.snapshot`` keys that sum across cache instances.
_SUMMABLE = ("hits", "misses", "puts", "evictions", "invalidations")


class ObsRegistry:
    """Recent traces + counter totals + registered cache-stat sources."""

    def __init__(self) -> None:
        self._traces: "OrderedDict[str, Any]" = OrderedDict()
        self._caches: "weakref.WeakSet[Any]" = weakref.WeakSet()
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

    # -- cache sources -----------------------------------------------------------

    def register_caches(self, caches: Any) -> None:
        """Track a FormCaches instance (weakly) for the metrics snapshot."""
        with self._lock:
            self._caches.add(caches)

    def cache_stats(self) -> Dict[str, Any]:
        """Per-layer ``CacheStats``, summed over every live registered FORM."""
        with self._lock:
            sources = list(self._caches)
        layers: Dict[str, Dict[str, float]] = {}
        for source in sources:
            for layer, stats in source.stats().items():
                bucket = layers.setdefault(layer, {key: 0 for key in _SUMMABLE})
                for key in _SUMMABLE:
                    bucket[key] += stats.get(key, 0)
        return {"sources": len(sources), "layers": layers}

    # -- the JSON snapshot ---------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """The ``/metrics`` payload: counters, caches, recent trace index."""
        # Import the submodules directly: the package namespace rebinds
        # ``trace`` to the context-manager function of the same name.
        from repro.obs.metrics import totals
        from repro.obs.trace import enabled

        return {
            "enabled": enabled(),
            "counters": totals.snapshot(),
            "caches": self.cache_stats(),
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
