"""The analyzer command line: ``python -m repro.analysis [paths]``.

Walks the given files/directories, runs every JQL rule, the tier
decision and read-set inference over each module, and prints a text or
JSON report.  Exit codes are stable (CI contracts on them):

* ``0`` -- no findings (warnings allowed unless ``--strict``);
* ``1`` -- error-severity findings (or any finding under ``--strict``);
* ``2`` -- usage error (no such path, unreadable/binary file, unknown
  ``--select`` code, unreadable/malformed ``--baseline`` file).

Two filters compose with the exit-code contract:

* ``--select JQL004,JQL010`` keeps only the listed rule codes (``JQL000``
  syntax errors are always kept -- a broken file must never pass);
* ``--baseline report.json`` suppresses findings recorded in a previous
  JSON report, matched by ``(code, file, model, symbol, message)`` with
  the line number ignored, so accepted legacy findings survive unrelated
  edits that shift them.

Syntax errors in analyzed files are *findings* (``JQL000``, error
severity), not crashes: a tree with one broken file still gets the rest
of its report.

>>> report = analyze_source('''
... class Doc(JModel):
...     title = CharField()
...     @staticmethod
...     @label_for("nope")
...     def restrict(row, viewer):
...         return False
... ''', "doc.py")
>>> [d.code for d in report.diagnostics]
['JQL001', 'JQL010']
>>> report.exit_code()
1
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence

from repro.analysis.classify import classify_module
from repro.analysis.diagnostics import Diagnostic, Report, Severity
from repro.analysis.facts import ModuleFacts, facts_for_source
from repro.analysis.readsets import model_read_sets
from repro.analysis.rules import RULES, run_rules


def collect_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files.

    Raises ``FileNotFoundError`` for a path that does not exist (a usage
    error, exit code 2 -- a silently skipped tree would report "clean").
    """
    files: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            files.append(path)
        elif os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs[:] = sorted(d for d in dirs if not d.startswith(("__", ".")))
                files.extend(
                    os.path.join(root, name)
                    for name in sorted(names)
                    if name.endswith(".py")
                )
        else:
            raise FileNotFoundError(path)
    return sorted(dict.fromkeys(files))


def _analyze_module(module: ModuleFacts, report: Report) -> None:
    report.files.append(module.path)
    report.extend(run_rules(module))
    report.policies.extend(classify_module(module))
    for model in module.models:
        report.models.append(model.name)
        for method_name, reads in model_read_sets(model).items():
            report.read_sets[f"{model.name}.{method_name}"] = reads.report()


def analyze_source(source: str, path: str, report: Optional[Report] = None) -> Report:
    """Analyze one source string (the in-memory entry used by tests/docs)."""
    report = report if report is not None else Report()
    try:
        module = facts_for_source(source, path)
    except SyntaxError as exc:
        report.files.append(path)
        report.diagnostics.append(Diagnostic(
            "JQL000", Severity.ERROR, f"syntax error: {exc.msg}",
            path, exc.lineno or 0,
        ))
        return report
    _analyze_module(module, report)
    return report


def analyze_paths(paths: Sequence[str]) -> Report:
    """Analyze every ``.py`` file under the given paths into one report."""
    report = Report()
    for path in collect_files(paths):
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        analyze_source(source, path, report)
    return report


def _fingerprint(code: str, file: str, model, symbol, message) -> tuple:
    """The line-independent identity of a finding, for baseline matching."""
    return (code, os.path.normpath(file or ""), model, symbol, message)


def parse_select(spec: str) -> set:
    """The rule codes of a ``--select`` spec; raises ``ValueError`` on an
    unknown code.  ``JQL000`` (syntax error) is always included.

    >>> sorted(parse_select("JQL004,JQL010"))
    ['JQL000', 'JQL004', 'JQL010']
    """
    codes = {code.strip() for code in spec.split(",") if code.strip()}
    unknown = sorted(code for code in codes if code not in RULES and code != "JQL000")
    if unknown:
        raise ValueError(
            f"unknown rule code(s): {', '.join(unknown)}; "
            f"known: {', '.join(sorted(RULES))}"
        )
    return codes | {"JQL000"}


def load_baseline(path: str) -> set:
    """The accepted-finding fingerprints of a baseline JSON report.

    Accepts a full ``--format json`` report (its ``diagnostics`` list) or
    a bare list of diagnostic objects.  Raises ``OSError``/``ValueError``
    for unreadable or malformed files (a usage error, exit code 2).
    """
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    entries = payload.get("diagnostics") if isinstance(payload, dict) else payload
    if not isinstance(entries, list):
        raise ValueError("baseline must be a JSON report or a list of findings")
    accepted = set()
    for entry in entries:
        if not isinstance(entry, dict):
            raise ValueError("baseline entries must be finding objects")
        accepted.add(_fingerprint(
            entry.get("code"), entry.get("file", ""),
            entry.get("model"), entry.get("symbol"), entry.get("message"),
        ))
    return accepted


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static information-flow lint for Jacqueline applications.",
    )
    parser.add_argument(
        "paths", nargs="*", default=["."],
        help="files or directories to analyze (default: current directory)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="exit nonzero on warnings too, not only errors",
    )
    parser.add_argument(
        "--select", default=None, metavar="CODES",
        help="comma-separated rule codes to keep (e.g. JQL004,JQL010); "
             "JQL000 syntax errors are always kept",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="JSON report of accepted findings to suppress (matched by "
             "code, file, model, symbol and message; line ignored)",
    )
    args = parser.parse_args(argv)
    if args.select is not None:
        try:
            selected = parse_select(args.select)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.baseline is not None:
        try:
            accepted = load_baseline(args.baseline)
        except FileNotFoundError:
            print(f"error: no such baseline: {args.baseline}", file=sys.stderr)
            return 2
        except (OSError, ValueError) as exc:
            print(f"error: bad baseline {args.baseline}: {exc}", file=sys.stderr)
            return 2
    try:
        report = analyze_paths(args.paths)
    except FileNotFoundError as exc:
        print(f"error: no such path: {exc.args[0]}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.select is not None:
        report.diagnostics = [
            d for d in report.diagnostics if d.code in selected
        ]
    if args.baseline is not None:
        report.diagnostics = [
            d for d in report.diagnostics
            if _fingerprint(d.code, d.file, d.model, d.symbol, d.message)
            not in accepted
        ]
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.to_text())
    return report.exit_code(strict=args.strict)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
