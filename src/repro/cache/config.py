"""Names kept for the benchmark harness only.

The FORM keeps no result cache: every read runs its statement and builds
its instances from the fresh rows.  ``perfbench/`` still passes a
:class:`CacheConfig` to ``setup_conf`` and reports ``form.caches.stats()``;
these two names keep it running, and nothing else passes or reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict


@dataclass(frozen=True)
class CacheConfig:
    """Ignored: only perfbench builds one, and ``setup_conf`` drops it."""

    enabled: bool = True

    @classmethod
    def disabled(cls) -> "CacheConfig":
        return cls(enabled=False)


class FormCaches:
    """``FORM.caches``, read only by perfbench, whose report still names a
    query and a label layer: both always read zero."""

    def stats(self) -> Dict[str, Dict[str, Any]]:
        zero = {"hits": 0, "misses": 0, "puts": 0, "evictions": 0,
                "invalidations": 0, "hit_rate": 0.0}
        return {"queries": dict(zero), "labels": dict(zero)}
