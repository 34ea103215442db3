"""Command-line entry points: ``python -m repro.lint`` and the CLI verb."""

from __future__ import annotations

import json

from repro.lint import validate_report
from repro.lint.app import find_repo_root, main

BAD = "import numpy as np\nrng = np.random.default_rng()\n"
CLEAN = '"""Fine."""\nVALUE = 1\n'


def _repo(tmp_path, source=BAD):
    """A minimal repo (pyproject marker + one module, violating by default)."""
    (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
    pkg = tmp_path / "src" / "repro" / "core"
    pkg.mkdir(parents=True)
    (pkg / "bad.py").write_text(source)
    return tmp_path


def test_find_repo_root(tmp_path):
    """The nearest pyproject.toml upward wins."""
    root = _repo(tmp_path)
    nested = root / "src" / "repro"
    assert find_repo_root(nested) == root
    assert find_repo_root(root) == root


def test_main_exit_one_on_findings(tmp_path, capsys):
    """A violating tree exits 1 and prints the finding."""
    root = _repo(tmp_path)
    code = main(["--root", str(root)])
    out = capsys.readouterr().out
    assert code == 1
    assert "D102" in out
    assert "checked 1 files" in out


def test_main_exit_zero_on_clean(tmp_path, capsys):
    """A clean tree exits 0."""
    assert main(["--root", str(_repo(tmp_path, CLEAN))]) == 0


def test_json_output_file_validates(tmp_path, capsys):
    """--format json --output writes a schema-conforming artifact."""
    root = _repo(tmp_path)
    out_file = tmp_path / "lint-report.json"
    code = main([
        "--root", str(root), "--format", "json", "--output", str(out_file),
    ])
    assert code == 1
    payload = json.loads(out_file.read_text())
    validate_report(payload)
    assert payload["counts"]["errors"] == 1
    # stdout carries the same report.
    assert json.loads(capsys.readouterr().out) == payload


def test_write_baseline_then_clean(tmp_path, capsys):
    """--write-baseline grandfathers the tree; the next run exits 0."""
    root = _repo(tmp_path)
    baseline = tmp_path / "baseline.json"
    assert main([
        "--root", str(root), "--baseline", str(baseline), "--write-baseline",
    ]) == 0
    assert baseline.exists()
    assert main(["--root", str(root), "--baseline", str(baseline)]) == 0
    # Fixing the violation makes the baseline entry stale: exit 1 again.
    (root / "src" / "repro" / "core" / "bad.py").write_text(
        '"""Fixed."""\nVALUE = 1\n'
    )
    code = main(["--root", str(root), "--baseline", str(baseline)])
    out = capsys.readouterr().out
    assert code == 1
    assert "stale baseline" in out


def test_update_baseline_preserves_justifications(tmp_path, capsys):
    """--update-baseline keeps surviving entries' hand-written reasons."""
    root = _repo(tmp_path)
    baseline = tmp_path / "baseline.json"
    main(["--root", str(root), "--baseline", str(baseline),
          "--write-baseline"])
    # Hand-justify the entry, then grow a second violation.
    payload = json.loads(baseline.read_text())
    payload["findings"][0]["justification"] = "legacy fuzz harness"
    baseline.write_text(json.dumps(payload))
    (root / "src" / "repro" / "core" / "worse.py").write_text(BAD)
    capsys.readouterr()
    assert main(["--root", str(root), "--baseline", str(baseline),
                 "--update-baseline"]) == 0
    out = capsys.readouterr().out
    assert "1 justifications preserved" in out
    entries = {
        e["path"]: e["justification"]
        for e in json.loads(baseline.read_text())["findings"]
    }
    assert entries["src/repro/core/bad.py"] == "legacy fuzz harness"
    assert entries["src/repro/core/worse.py"] == "TODO: justify or fix"
    # A fixed violation drops out of the regenerated baseline entirely.
    (root / "src" / "repro" / "core" / "worse.py").write_text(
        '"""Fixed."""\nVALUE = 1\n'
    )
    assert main(["--root", str(root), "--baseline", str(baseline),
                 "--update-baseline"]) == 0
    paths = [
        e["path"] for e in json.loads(baseline.read_text())["findings"]
    ]
    assert paths == ["src/repro/core/bad.py"]


def test_no_baseline_flag_reports_grandfathered(tmp_path, capsys):
    """--no-baseline surfaces baselined findings again."""
    root = _repo(tmp_path)
    baseline = tmp_path / "baseline.json"
    main(["--root", str(root), "--baseline", str(baseline),
          "--write-baseline"])
    capsys.readouterr()
    code = main(["--root", str(root), "--baseline", str(baseline),
                 "--no-baseline"])
    assert code == 1
    assert "D102" in capsys.readouterr().out


def test_fail_on_error_tolerates_warnings(tmp_path):
    """A warnings-only tree passes under --fail-on error."""
    root = _repo(tmp_path)
    (root / "src" / "repro" / "core" / "bad.py").write_text(
        '"""Prints."""\n\n\ndef fit(x):\n    """Fit."""\n    print(x)\n'
    )
    assert main(["--root", str(root)]) == 1
    assert main(["--root", str(root), "--fail-on", "error"]) == 0


def test_list_rules(capsys):
    """--list-rules prints the catalog with ids and severities."""
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("D101", "P203", "S305"):
        assert rule_id in out


def test_unknown_path_is_usage_error(tmp_path, capsys):
    """Exit code 2 distinguishes usage errors from findings."""
    root = _repo(tmp_path)
    assert main(["--root", str(root), "no_such_path"]) == 2


def test_cli_lint_verb(tmp_path, capsys, monkeypatch):
    """``repro-traffic lint`` dispatches into the same runner."""
    from repro.cli import main as cli_main

    monkeypatch.chdir(_repo(tmp_path, CLEAN))
    code = cli_main(["lint", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    validate_report(payload)
    assert code == 0
    assert payload["findings"] == []
    assert payload["counts"]["files"] == 1


def test_module_entry_point(repo_root, tmp_path):
    """``python -m repro.lint`` lints the tree it runs in; exit 0 when clean."""
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "repro.lint", "--format", "json"],
        cwd=_repo(tmp_path, CLEAN),
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(repo_root / "src"), "PATH": "/usr/bin:/bin"},
        check=False,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    validate_report(json.loads(proc.stdout))
