"""Benchmark support: timing, lines-of-code analysis and report formatting.

The actual experiments live in ``benchmarks/`` (one module per table or
figure of the paper); this package holds the shared machinery:

* :mod:`repro.bench.timing` -- request timing in the style of the paper's
  FunkLoad runs (average over a burst of identical requests), and the
  best-of timer of the speedup gates;
* :mod:`repro.bench.loc` -- the policy / non-policy lines-of-code classifier
  behind Figure 6;
* :mod:`repro.bench.report` -- plain-text table rendering for the harness
  output recorded in EXPERIMENTS.md.
"""

from repro.bench.timing import time_best, time_callable, time_request
from repro.bench.loc import LocBreakdown, classify_source, count_module
from repro.bench.report import format_series, format_table

__all__ = [
    "time_best",
    "time_request",
    "time_callable",
    "LocBreakdown",
    "classify_source",
    "count_module",
    "format_table",
    "format_series",
]
