"""Self-checks of the benchmark itself (not part of the repository's tests).

    python3 -m pytest perfbench/test_selfcheck.py

* Two traced runs with the same seed report identical counts, so later
  changes can cite them as exact: ``db.statements``, ``form.policy.evals``,
  ``form.read.calls`` and ``web.render.form_calls``.
* In a traced run, each operation's per-layer self times sum to no more
  than its wall time (the run counts a violating operation as failed and
  reports the largest share it saw).
* Without the program's source next to it, the benchmark exits non-zero and
  prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
EXACT = ("db.statements", "form.policy.evals", "form.read.calls", "web.render.form_calls")
WORKLOADS = ("conf-pages", "conf-churn", "form-bulk")


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _result(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stderr[-4000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _self_share(completed: subprocess.CompletedProcess) -> float:
    for line in completed.stdout.splitlines():
        fields = line.split()
        if fields and fields[0] == "layers.self_share_max":
            return float(fields[1])
    raise AssertionError("traced run printed no layers.self_share_max")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = _run(workload, 5, 1), _run(workload, 5, 1)
    a, b = _result(first), _result(second)
    assert a["correct"] and b["correct"]
    for name in EXACT:
        assert a["metrics"][name]["value"] == b["metrics"][name]["value"], name
    for completed in (first, second):
        assert 0 < _self_share(completed) <= 1


def test_refuses_to_run_without_the_program():
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as empty:
        shutil.copytree(BENCH, Path(empty) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", empty)
        completed = _run("conf-pages", 1, 0, cwd=Path(empty))
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
