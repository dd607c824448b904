"""The repo's own applications, examples and benchmarks pass their own
linter.

This is the same invocation CI runs (``python -m repro.analysis
src/repro/apps examples benchmarks``); keeping it in tier-1 means a policy
change that trips a JQL rule fails fast, locally.  The benchmarks'
models back the pushdown gates, so they are linted like the apps.
"""

import os

from repro.analysis.cli import analyze_paths

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)


def _analyze():
    return analyze_paths([
        os.path.join(REPO_ROOT, "src", "repro", "apps"),
        os.path.join(REPO_ROOT, "examples"),
        os.path.join(REPO_ROOT, "benchmarks"),
    ])


def test_repo_apps_and_examples_are_clean():
    report = _analyze()
    formatted = [d.format() for d in report.sorted_diagnostics()]
    assert report.errors == [], formatted
    assert report.warnings == [], formatted
    assert report.exit_code(strict=True) == 0


def test_every_app_model_got_analyzed():
    report = _analyze()
    names = set(report.models)
    assert {"Paper", "Review", "Event", "EventGuest", "HealthRecord"} <= names
    assert {"BenchDoc", "BenchRecord", "BenchSecret"} <= names
