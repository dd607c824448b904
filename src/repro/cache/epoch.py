"""The global policy epoch.

Policies may consult state that lives outside the database -- the canonical
example is the conference phase of the paper's case study, a plain class
attribute.  Database writes flow through the invalidation bus, but such
out-of-band policy inputs do not, so anything mutating them must call
:func:`bump_policy_epoch`.  The epoch is part of the bus's viewer-facing
stamp (:meth:`repro.cache.bus.InvalidationBus.stamp`), so a bump makes
every batched foreign-key load taken before it stale
(``repro.form.manager._batched_lookup``).
"""

from __future__ import annotations

import itertools
import threading

_lock = threading.Lock()
_counter = itertools.count(1)
_current = 0


def policy_epoch() -> int:
    """The current epoch (monotonically increasing, starts at 0)."""
    return _current


def bump_policy_epoch() -> int:
    """Make every stamp taken under an older epoch stale; returns the new
    epoch."""
    global _current
    with _lock:
        _current = next(_counter)
        return _current
