"""The label-resolution memo.

Early Pruning resolves, for every record on a page, whether each guarding
label is visible to the session viewer -- and resolving one label runs the
model's policy, which typically issues further queries (the conflict lookup
of the paper's Figure 7 policy is the canonical example).  Across requests
by the same viewer these resolutions are identical until something the
policies read changes, so the memo keys outcomes by
``(label name, viewer identity)``.

Safety:

* entries are **per-viewer** -- a viewer key never matches another viewer,
  so a memoised outcome cannot leak across users;
* policies may read *any* table and out-of-band state such as the
  conference phase, so every entry is stored beside the bus's viewer-facing
  stamp (:meth:`repro.cache.bus.InvalidationBus.stamp`: write count, schema
  generation, policy epoch) taken before its policy ran, and answers only
  under an equal stamp.  All current entries share one stamp, so the memo
  empties itself the first time it is used under a newer one;
* viewers without a stable identity (no integer ``jid``) are never cached.
"""

from __future__ import annotations

import threading
from typing import Any, Hashable, Optional, Tuple

from repro.cache.lru import LRUCache, MISSING

#: The most label outcomes the memo holds (least recently used go first).
LABEL_CACHE_SIZE = 8192


def viewer_cache_key(viewer: Any) -> Optional[Hashable]:
    """A stable identity for a viewer, or ``None`` when not cacheable.

    Model instances are recreated on every request, so object identity is
    useless; the (model name, jid) pair is the durable identity.  The
    anonymous viewer is a valid, distinct identity of its own.
    """
    if viewer is None:
        return ("<anonymous>",)
    jid = getattr(viewer, "jid", None)
    if isinstance(jid, int):
        return (type(viewer).__name__, jid)
    return None


class LabelResolutionCache:
    """Memoises per-viewer label outcomes under one stamp."""

    def __init__(self) -> None:
        self._lru = LRUCache(LABEL_CACHE_SIZE)
        #: the newest stamp the memo has been used under
        self._stamp: Tuple = ()
        self._lock = threading.Lock()

    def _use(self, stamp: Tuple) -> None:
        """Empty the memo the first time it is used under a newer stamp.

        Entries answer only under their own stamp anyway
        (:class:`~repro.cache.lru.LRUCache`); this reclaims them."""
        if stamp > self._stamp:
            with self._lock:
                if stamp > self._stamp:
                    self._stamp = stamp
                    self._lru.clear()

    def get(self, label_name: str, viewer_key: Hashable, stamp: Tuple) -> Optional[bool]:
        """The outcome memoised under ``stamp``, or ``None``."""
        self._use(stamp)
        outcome = self._lru.lookup((label_name, viewer_key), stamp)
        return None if outcome is MISSING else outcome

    def put(self, label_name: str, viewer_key: Hashable, outcome: bool, stamp: Tuple) -> None:
        """Memoise an outcome beside the stamp taken *before* its policy
        ran: a write or epoch bump landing in between has already changed
        the stamp, so the outcome never answers a lookup after it."""
        self._use(stamp)
        self._lru.put((label_name, viewer_key), bool(outcome), stamp)

    def clear(self) -> None:
        self._lru.clear()

    @property
    def stats(self):
        return self._lru.stats

    def __len__(self) -> int:
        return len(self._lru)

    def __repr__(self) -> str:
        return f"LabelResolutionCache({self._lru!r})"
