"""Write events and the policy epoch: when a stored read goes stale.

The FORM resolves labels and runs each read's statement against current
state on every read, as the paper's Early Pruning does, and caches no
result across reads.  Within one read, a viewer-context result list loads
its members' foreign-key targets in one batch
(``repro.form.manager._batched_lookup``); the batch is used only while
nothing that could change its answer has happened since it was loaded:

* :class:`~repro.cache.bus.InvalidationBus` -- the one counter every
  database write and schema change bumps;
* :func:`~repro.cache.epoch.bump_policy_epoch` -- what code mutating a
  policy input outside the database calls instead.

:class:`~repro.cache.config.CacheConfig` and
:class:`~repro.cache.config.FormCaches` are kept for the benchmark
harness only (see :mod:`repro.cache.config`).
"""

from repro.cache.bus import InvalidationBus
from repro.cache.config import CacheConfig, FormCaches
from repro.cache.epoch import bump_policy_epoch, policy_epoch

__all__ = [
    "CacheConfig",
    "FormCaches",
    "InvalidationBus",
    "bump_policy_epoch",
    "policy_epoch",
]
