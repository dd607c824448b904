"""CLI contract and golden-JSON tests for ``python -m repro.analysis``."""

import json
import os
import subprocess
import sys

import pytest

from repro.analysis import cli

SOURCE = '''
class Memo(JModel):
    title = CharField()
    priority = IntegerField()

    @staticmethod
    def jacqueline_get_public_title(memo):
        return str(memo.priority)

    @staticmethod
    @label_for("title")
    def restrict_title(memo, viewer):
        return getattr(viewer, "name", None) == "owner"
'''

GOLDEN = {
    "diagnostics": [],
    "policies": [
        {
            "model": "Memo",
            "group": "title",
            "fields": ["title"],
            "policy": "restrict_title",
            "tier": "inline",
            "reason": None,
            "predicate": {
                "atom": "eq",
                "lhs": {"viewer": "name", "default": None},
                "rhs": {"const": "owner"},
            },
        }
    ],
    "read_sets": {
        "Memo.jacqueline_get_public_title": ["priority"],
    },
    "summary": {"files": 1, "models": 1, "errors": 0, "warnings": 0},
}


def test_report_json_matches_the_golden_payload():
    report = cli.analyze_source(SOURCE, "memo.py")
    assert json.loads(report.to_json()) == GOLDEN


def test_cli_json_format_round_trips(tmp_path, capsys):
    path = tmp_path / "memo.py"
    path.write_text(SOURCE)
    assert cli.main([str(path), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == GOLDEN


def test_cli_text_format_prints_the_summary_line(tmp_path, capsys):
    path = tmp_path / "memo.py"
    path.write_text(SOURCE)
    assert cli.main([str(path)]) == 0
    out = capsys.readouterr().out
    assert "1 file(s), 1 model(s): 0 error(s), 0 warning(s)" in out


def test_missing_path_is_a_usage_error(capsys):
    assert cli.main(["definitely/not/here.py"]) == 2
    err = capsys.readouterr().err
    assert "no such path" in err


def test_directory_walk_skips_caches_and_dedups(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "__pycache__").mkdir()
    (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
    (tmp_path / "pkg" / "__pycache__" / "junk.py").write_text("x = 1\n")
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
    files = cli.collect_files([str(tmp_path), str(tmp_path / "pkg" / "a.py")])
    assert files == [str(tmp_path / "pkg" / "a.py")]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_module_entry_point_runs(tmp_path, fmt):
    path = tmp_path / "memo.py"
    path.write_text(SOURCE)
    repo_root = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(repo_root, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", str(path), "--format", fmt],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    if fmt == "json":
        assert json.loads(proc.stdout) == GOLDEN


MIXED = SOURCE + '''

def render(memo):
    if memo.title:
        return "titled"
    return "untitled"
'''


def test_select_keeps_only_the_listed_codes(tmp_path, capsys):
    path = tmp_path / "memo.py"
    path.write_text(MIXED)
    # The fixture trips JQL006 (warning, name heuristic); selecting only
    # JQL004 filters it out and the run is clean even under --strict.
    assert cli.main([str(path), "--select", "JQL004", "--strict"]) == 0
    capsys.readouterr()
    assert cli.main([str(path), "--select", "JQL006", "--strict"]) == 1
    out = capsys.readouterr().out
    assert "JQL006" in out


def test_select_rejects_unknown_codes(tmp_path, capsys):
    path = tmp_path / "memo.py"
    path.write_text(SOURCE)
    assert cli.main([str(path), "--select", "JQL999"]) == 2
    err = capsys.readouterr().err
    assert "unknown rule code" in err and "JQL999" in err


def test_select_always_keeps_syntax_errors(tmp_path, capsys):
    path = tmp_path / "broken.py"
    path.write_text("def broken(:\n")
    assert cli.main([str(path), "--select", "JQL004"]) == 1
    out = capsys.readouterr().out
    assert "JQL000" in out


def test_baseline_suppresses_recorded_findings_ignoring_lines(tmp_path, capsys):
    path = tmp_path / "memo.py"
    path.write_text(MIXED)
    baseline = tmp_path / "baseline.json"
    assert cli.main([str(path), "--format", "json"]) == 0
    baseline.write_text(capsys.readouterr().out)
    # Accepted as baseline: the same findings no longer fail the run.
    assert cli.main([str(path), "--baseline", str(baseline), "--strict"]) == 0
    capsys.readouterr()
    # Shift every line: the fingerprint ignores lines, still suppressed.
    path.write_text("# moved\n\n\n" + MIXED)
    assert cli.main([str(path), "--baseline", str(baseline), "--strict"]) == 0
    capsys.readouterr()
    # A *new* finding is not in the baseline and fails the run.
    path.write_text(MIXED + '''

def render_again(memo):
    if memo.title:
        return "again"
    return ""
''')
    assert cli.main([str(path), "--baseline", str(baseline), "--strict"]) == 1
    out = capsys.readouterr().out
    assert "render_again" in out or "JQL006" in out


def test_baseline_usage_errors_exit_2(tmp_path, capsys):
    path = tmp_path / "memo.py"
    path.write_text(SOURCE)
    assert cli.main([str(path), "--baseline", str(tmp_path / "nope.json")]) == 2
    assert "no such baseline" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main([str(path), "--baseline", str(bad)]) == 2
    assert "bad baseline" in capsys.readouterr().err
