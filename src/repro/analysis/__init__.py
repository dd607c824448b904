"""Static analysis for Jacqueline applications (``repro.analysis``).

Three consumers share one AST toolkit:

* the **linter** (:mod:`repro.analysis.rules`, codes ``JQL001``...)
  enforces the trusted surface -- run as ``python -m repro.analysis``;
* **read-set inference** (:mod:`repro.analysis.readsets`) feeds the FORM
  write decision procedure at runtime: a fast-path ``update()`` touching a
  column some public-facet method reads is forced onto the batched
  rewrite, closing the stored-snapshot staleness hole;
* the **policy classifier** (:mod:`repro.analysis.classify`) emits
  machine-readable policy shapes for the CLI report, and the **symbolic
  compiler** (:mod:`repro.analysis.symbolic`) emits the predicate IR the
  FORM renders when it compiles Early Pruning into SQL.

Import side effects are kept minimal: this package never imports
``repro.form`` at module level (the form imports *us* lazily), so the
analyzer stays usable on source trees without touching the runtime.
"""

from repro.analysis.diagnostics import Diagnostic, Report, Severity
from repro.analysis.readsets import ReadSet, public_read_columns_for_model
from repro.analysis.rules import RULES

__all__ = [
    "Diagnostic",
    "Report",
    "Severity",
    "ReadSet",
    "RULES",
    "public_read_columns_for_model",
]
