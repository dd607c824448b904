"""Cache subsystem configuration.

A :class:`CacheConfig` travels on the :class:`~repro.form.context.FORM` and
switches its cache layers on or off.  Caching is on by default -- the
paper-faithful benchmark baselines disable it with
``CacheConfig.disabled()`` so cold-path numbers keep matching the paper's
uncached measurements.  The layers' sizes are module constants
(:mod:`repro.cache.query_cache`, :mod:`repro.cache.label_cache`).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CacheConfig:
    """The one switch of the FORM cache layers: the faceted query cache
    and the per-viewer label-resolution memo."""

    enabled: bool = True

    @classmethod
    def disabled(cls) -> "CacheConfig":
        """A configuration with every cache layer off (benchmark baselines)."""
        return cls(enabled=False)
