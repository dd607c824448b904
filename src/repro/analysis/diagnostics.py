"""Diagnostics: findings, severities and reports for the static analyzer.

A :class:`Diagnostic` is one finding of one rule at one source location.
:class:`Report` collects findings (and the policy tiers and read sets
computed alongside them), renders them as text or JSON, and turns them
into the CLI's exit code.

>>> d = Diagnostic("JQL001", Severity.ERROR, "no such field", "m.py", 3)
>>> d.is_error
True
>>> print(d.format())
m.py:3: JQL001 error: no such field
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, List, Optional, Sequence


class Severity(str, Enum):
    """How bad a finding is.

    ``ERROR`` findings are soundness or correctness problems (the CLI exits
    nonzero); ``WARNING`` findings are likely omissions or heuristic smells
    (nonzero only under ``--strict``).

    >>> Severity.ERROR.value
    'error'
    """

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a rule code, a severity, a message and a location."""

    code: str
    severity: Severity
    message: str
    file: str
    line: int
    model: Optional[str] = None
    symbol: Optional[str] = None

    @property
    def is_error(self) -> bool:
        return self.severity is Severity.ERROR

    def sort_key(self):
        return (self.file, self.line, self.code, self.message)

    def format(self) -> str:
        """The one-line human rendering of this finding.

        >>> print(Diagnostic("JQL004", Severity.ERROR, "leaky read",
        ...                  "models.py", 12, "Paper", "get_public_x").format())
        models.py:12: JQL004 error: leaky read [Paper.get_public_x]
        """
        where = ""
        if self.model and self.symbol:
            where = f" [{self.model}.{self.symbol}]"
        elif self.model:
            where = f" [{self.model}]"
        return (
            f"{self.file}:{self.line}: {self.code} {self.severity.value}: "
            f"{self.message}{where}"
        )

    def to_json(self) -> Dict[str, Any]:
        return {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
            "file": self.file,
            "line": self.line,
            "model": self.model,
            "symbol": self.symbol,
        }


@dataclass
class Report:
    """The full outcome of one analyzer run.

    ``diagnostics`` are rule findings; ``policies`` has one record per
    policy group, with its model's tier and reason
    (:func:`repro.analysis.classify.classify_module`); ``read_sets`` maps
    ``Model.method`` of each public-facet method to its inferred column
    read set (``"TOP"`` when inference gave up).
    """

    diagnostics: List[Diagnostic] = field(default_factory=list)
    policies: List[Dict[str, Any]] = field(default_factory=list)
    read_sets: Dict[str, Any] = field(default_factory=dict)
    files: List[str] = field(default_factory=list)
    models: List[str] = field(default_factory=list)

    def extend(self, diagnostics: Sequence[Diagnostic]) -> None:
        self.diagnostics.extend(diagnostics)

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.is_error]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if not d.is_error]

    def sorted_diagnostics(self) -> List[Diagnostic]:
        return sorted(self.diagnostics, key=Diagnostic.sort_key)

    def exit_code(self, strict: bool = False) -> int:
        """The CLI exit code: 0 clean, 1 findings (errors; warnings too
        under ``strict``).

        >>> Report().exit_code()
        0
        """
        if self.errors:
            return 1
        if strict and self.warnings:
            return 1
        return 0

    def summary(self) -> Dict[str, Any]:
        return {
            "files": len(self.files),
            "models": len(self.models),
            "errors": len(self.errors),
            "warnings": len(self.warnings),
        }

    def to_text(self) -> str:
        lines = [d.format() for d in self.sorted_diagnostics()]
        s = self.summary()
        lines.append(
            f"{s['files']} file(s), {s['models']} model(s): "
            f"{s['errors']} error(s), {s['warnings']} warning(s)"
        )
        return "\n".join(lines)

    def to_json(self) -> str:
        payload = {
            "diagnostics": [d.to_json() for d in self.sorted_diagnostics()],
            "policies": self.policies,
            "read_sets": self.read_sets,
            "summary": self.summary(),
        }
        return json.dumps(payload, indent=2, sort_keys=True)
