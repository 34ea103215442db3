"""Driver behaviour: discovery, syntax errors, parallel/serial identity,
registry integrity, and the shipped tree linting clean."""

from __future__ import annotations

import textwrap

import pytest

from repro.lint import (
    Baseline,
    LintError,
    all_rules,
    get_rule,
    lint_paths,
    lint_source,
)
from repro.lint.determinism import DETERMINISTIC_DIRS, HOT_PATH_FILES
from repro.lint.driver import SYNTAX_RULE_ID, discover_files
from repro.lint.parallelism import EXECUTOR_MODULE
from repro.lint.provenance import D106_DIRS
from repro.lint.threads import SERVE_DIRS

BAD = "import numpy as np\nrng = np.random.default_rng()\n"
GOOD = '"""Fine."""\nVALUE = 1\n'


def _tree(tmp_path):
    """A tiny repo tree with one violation and one clean module."""
    pkg = tmp_path / "src" / "repro" / "core"
    pkg.mkdir(parents=True)
    (pkg / "bad.py").write_text(BAD)
    (pkg / "good.py").write_text(GOOD)
    (pkg / "__pycache__").mkdir()
    (pkg / "__pycache__" / "stale.py").write_text(BAD)
    return tmp_path


class TestDiscovery:
    """File discovery: defaults, exclusions, and loud typos."""

    def test_walks_default_roots_and_excludes_pycache(self, tmp_path):
        """Only real sources are linted; caches are skipped."""
        files = discover_files(_tree(tmp_path))
        assert files == ["src/repro/core/bad.py", "src/repro/core/good.py"]

    def test_explicit_file_target(self, tmp_path):
        """Naming one file lints exactly that file."""
        _tree(tmp_path)
        files = discover_files(tmp_path, ["src/repro/core/good.py"])
        assert files == ["src/repro/core/good.py"]

    def test_unknown_target_raises(self, tmp_path):
        """A typo must not silently lint nothing."""
        with pytest.raises(FileNotFoundError, match="no_such"):
            discover_files(_tree(tmp_path), ["no_such_dir"])


class TestLintPaths:
    """End-to-end runs over the tiny tree."""

    def test_finds_the_seeded_violation(self, tmp_path):
        """The canonical acceptance check: unseeded default_rng is caught."""
        result = lint_paths(_tree(tmp_path))
        assert [f.rule for f in result.findings] == ["D102"]
        assert result.files == 2
        assert result.failed()

    def test_parallel_output_identical_to_serial(self, tmp_path):
        """jobs>1 fans out through make_executor with identical findings."""
        tree = _tree(tmp_path)
        serial = lint_paths(tree, jobs=1)
        parallel = lint_paths(tree, jobs=2)
        assert parallel.findings == serial.findings
        assert parallel.files == serial.files
        assert parallel.suppressed == serial.suppressed

    def test_baseline_filters_findings(self, tmp_path):
        """A baselined violation no longer fails the run."""
        tree = _tree(tmp_path)
        bare = lint_paths(tree)
        baseline = Baseline.from_findings(
            bare.unbaselined_findings, justification="fixture"
        )
        result = lint_paths(tree, baseline=baseline)
        assert result.findings == []
        assert result.baselined == 1
        assert not result.failed()


class TestSyntaxErrors:
    """Unparseable files become E999 findings, not crashes."""

    def test_syntax_error_reported(self):
        """One E999 finding carries the parse failure."""
        report = lint_source("src/repro/core/x.py", "def broken(:\n")
        assert len(report.findings) == 1
        finding = report.findings[0]
        assert finding.rule == SYNTAX_RULE_ID
        assert finding.severity == "error"
        assert "does not parse" in finding.message


class TestRegistry:
    """The rule registry: coverage floor and lookup errors."""

    def test_catalog_meets_issue_floor(self):
        """At least 10 rules, spanning all three series."""
        ids = [rule.id for rule in all_rules()]
        assert len(ids) >= 10
        assert ids == sorted(ids)
        for series in ("D", "P", "S"):
            assert any(i.startswith(series) for i in ids), series

    def test_every_rule_documented(self):
        """id/title/severity/rationale are all populated."""
        for rule in all_rules():
            assert rule.id and rule.title and rule.rationale, rule
            assert rule.severity in ("error", "warning")

    def test_unknown_rule_id_raises(self):
        """Lookup typos fail loudly."""
        with pytest.raises(LintError, match="Z999"):
            get_rule("Z999")


class TestSelfLint:
    """The linter's own acceptance bar: the shipped tree is clean."""

    def test_shipped_tree_lints_clean(self, repo_root):
        """src/tools/benchmarks produce zero findings over the baseline."""
        baseline = Baseline.load(
            repo_root / "baselines/repro_lint_baseline.json"
        )
        result = lint_paths(repo_root, baseline=baseline)
        assert result.findings == [], "\n".join(
            f.location() + " " + f.rule + " " + f.message
            for f in result.findings
        )
        assert result.stale_baseline == []
        assert not result.failed()

    def test_suppressions_in_tree_are_justified(self, repo_root):
        """Every inline directive in the tree carries a justification."""
        from repro.lint.suppress import parse_suppressions

        for rel in discover_files(repo_root):
            source = (repo_root / rel).read_text(encoding="utf-8")
            suppressions, problems = parse_suppressions(rel, source)
            assert problems == [], rel
            for suppression in suppressions:
                assert suppression.justification, (
                    f"{rel}:{suppression.line}: suppression without a "
                    "-- justification"
                )


def test_scope_virtual_paths():
    """The same snippet trips scoped rules only inside their scope."""
    snippet = textwrap.dedent("""
        import time
        t = time.time()
    """)
    in_scope = lint_source("src/repro/core/x.py", snippet,
                           [get_rule("D103")])
    out_scope = lint_source("src/repro/analysis/x.py", snippet,
                            [get_rule("D103")])
    assert len(in_scope.findings) == 1
    assert out_scope.findings == ()


@pytest.mark.parametrize(
    "scope",
    [*DETERMINISTIC_DIRS, *HOT_PATH_FILES, *D106_DIRS, *SERVE_DIRS,
     EXECUTOR_MODULE],
)
def test_rule_scopes_name_real_paths(repo_root, scope):
    """A scope naming a deleted path would switch its rule off unseen."""
    assert (repo_root / scope).exists()
