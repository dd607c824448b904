"""Static analysis for Jacqueline applications (``repro.analysis``).

Four parts share one AST toolkit:

* the **linter** (:mod:`repro.analysis.rules`, codes ``JQL001``...)
  enforces the trusted surface -- run as ``python -m repro.analysis``;
* **read-set inference** (:mod:`repro.analysis.readsets`) covers the
  ``jacqueline_get_public_*`` methods and feeds the FORM write decision
  procedure at runtime: a fast-path ``update()`` touching a column some
  public-facet method reads is forced onto the batched rewrite, closing
  the stored-snapshot staleness hole;
* the **symbolic compiler** (:mod:`repro.analysis.symbolic`) turns each
  ``@label_for`` policy into a predicate IR;
* the **tier decision** (:mod:`repro.analysis.classify`) decides from
  those predicates, once per model, whether its viewer-context reads
  prune inline in SQL or on the Python path.  The FORM caches it per
  model class, and the CLI report prints it.

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
