"""Cache subsystem configuration.

A :class:`CacheConfig` travels on the :class:`~repro.form.context.FORM` and
switches its query cache on or off.  Caching is on by default -- the
paper-faithful benchmark baselines disable it with
``CacheConfig.disabled()`` so cold-path numbers keep matching the paper's
uncached measurements.  The cache's size is a module constant of
:mod:`repro.cache.query_cache`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CacheConfig:
    """The one switch of the FORM's faceted query cache."""

    enabled: bool = True

    @classmethod
    def disabled(cls) -> "CacheConfig":
        """A configuration with the query cache off (benchmark baselines)."""
        return cls(enabled=False)
