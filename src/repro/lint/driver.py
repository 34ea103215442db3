"""The file-level lint driver: discover, parse, check — optionally in parallel.

Files are independent work units (every rule sees exactly one file), so
the driver fans them out through the same audited executor abstraction
the pipeline uses (:func:`repro.pipeline.executors.make_executor`) —
eating our own P203 dogfood — and merges the per-file reports into one
globally sorted finding list, so serial and parallel runs print
byte-identical output.

A file that fails to parse is reported as one ``E999`` finding rather
than aborting the run: the linter must keep working while the tree is
mid-refactor.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .baseline import Baseline, BaselineEntry
from .graph import ModuleSummary, ProjectGraph, summarize_source
from .rules import (
    FileContext,
    Finding,
    Rule,
    run_project_rules,
    run_rules,
)
from .suppress import Suppression, apply_suppressions, parse_suppressions

#: Directories a bare run walks, relative to the repository root.
DEFAULT_ROOTS = ("src", "tools", "benchmarks")

#: Directory names never descended into.
EXCLUDED_DIRS = frozenset(
    {"__pycache__", "output", ".git", ".repro-cache", "node_modules"}
)

#: Rule id of parse failures.
SYNTAX_RULE_ID = "E999"


@dataclass(frozen=True)
class FileReport:
    """Picklable outcome of linting one file."""

    path: str
    findings: tuple[Finding, ...]
    suppressed: int


@dataclass(frozen=True)
class FileOutcome:
    """Worker result: the per-file report plus the project-pass inputs.

    ``summary`` and ``suppressions`` are only populated when the run
    will execute the whole-program pass (a full default run); subtree
    and rule-filtered lints skip the extraction.  Everything here is
    picklable, so summaries ride the ordinary parallel fan-out and the
    parent folds them deterministically in sorted path order.
    """

    report: FileReport
    summary: ModuleSummary | None = None
    suppressions: tuple[Suppression, ...] = ()


@dataclass
class LintResult:
    """Merged outcome of one lint run.

    ``findings`` holds what is actionable *now* (suppressions and the
    baseline already applied); ``unbaselined_findings`` is the same list
    before baseline filtering, which ``--write-baseline`` snapshots.
    """

    root: str
    files: int
    findings: list[Finding]
    suppressed: int = 0
    baselined: int = 0
    stale_baseline: list[BaselineEntry] = field(default_factory=list)
    unbaselined_findings: list[Finding] = field(default_factory=list)

    def counts(self) -> dict[str, int]:
        """Summary counters of the run (feeds both report formats)."""
        return {
            "files": self.files,
            "findings": len(self.findings),
            "errors": sum(
                1 for f in self.findings if f.severity == "error"
            ),
            "warnings": sum(
                1 for f in self.findings if f.severity == "warning"
            ),
            "suppressed": self.suppressed,
            "baselined": self.baselined,
            "stale_baseline": len(self.stale_baseline),
        }

    def failed(self, fail_on: str = "warning") -> bool:
        """Whether the run should exit non-zero.

        ``fail_on="warning"`` (the default) fails on any finding;
        ``fail_on="error"`` tolerates warnings.  Stale baseline entries
        always fail — the baseline must only ever shrink.
        """
        if self.stale_baseline:
            return True
        if fail_on == "error":
            return any(f.severity == "error" for f in self.findings)
        return bool(self.findings)


def lint_source(
    path: str, source: str, rules: Sequence[Rule] | None = None
) -> FileReport:
    """Lint one in-memory file; the unit every test fixture drives.

    ``path`` is the repository-relative path the rules scope on — tests
    pass virtual paths like ``"src/repro/core/x.py"`` to place a snippet
    inside or outside a rule's scope.
    """
    path = path.replace("\\", "/")
    try:
        tree = ast.parse(source)
    except (SyntaxError, ValueError) as exc:
        reason = getattr(exc, "msg", None) or str(exc)
        return FileReport(
            path=path,
            findings=(
                Finding(
                    path=path,
                    line=getattr(exc, "lineno", None) or 1,
                    col=(getattr(exc, "offset", None) or 1) - 1,
                    rule=SYNTAX_RULE_ID,
                    severity="error",
                    message=f"file does not parse: {reason}",
                ),
            ),
            suppressed=0,
        )
    ctx = FileContext(path, source, tree)
    findings = run_rules(ctx, rules)
    suppressions, directive_problems = parse_suppressions(path, source)
    kept, suppressed = apply_suppressions(findings, suppressions)
    return FileReport(
        path=path,
        findings=tuple(sorted(kept + directive_problems)),
        suppressed=suppressed,
    )


def _lint_file(payload: tuple[str, str, bool]) -> FileOutcome:
    """Worker kernel: lint one on-disk file (module-level, picklable)."""
    root, rel, want_summary = payload
    source = (Path(root) / rel).read_text(encoding="utf-8")
    report = lint_source(rel, source)
    if not want_summary:
        return FileOutcome(report=report)
    suppressions, _ = parse_suppressions(rel, source)
    return FileOutcome(
        report=report,
        summary=summarize_source(rel, source),
        suppressions=tuple(suppressions),
    )


def discover_files(
    root: Path, paths: Sequence[str] | None = None
) -> list[str]:
    """Python files to lint, as sorted repo-relative POSIX paths.

    ``paths`` may name files or directories (relative to ``root`` or
    absolute); ``None`` walks :data:`DEFAULT_ROOTS`.  Unknown paths
    raise ``FileNotFoundError`` — a typo must not silently lint nothing.
    """
    root = root.resolve()
    targets = list(paths) if paths else [
        r for r in DEFAULT_ROOTS if (root / r).is_dir()
    ]
    found: set[str] = set()
    for target in targets:
        candidate = Path(target)
        if not candidate.is_absolute():
            candidate = root / candidate
        if candidate.is_file():
            found.add(candidate.resolve().relative_to(root).as_posix())
        elif candidate.is_dir():
            for file in candidate.rglob("*.py"):
                if EXCLUDED_DIRS.intersection(file.parts):
                    continue
                found.add(file.resolve().relative_to(root).as_posix())
        else:
            raise FileNotFoundError(f"no such lint target: {target}")
    return sorted(found)


def _run_project_pass(
    outcomes: Sequence[FileOutcome],
) -> tuple[list[Finding], int]:
    """Fold summaries into a graph and run the whole-program rules.

    Runs serially in the parent process over summaries sorted by path,
    so serial and parallel drivers produce byte-identical output.
    Inline suppressions of the file a finding lands in apply exactly as
    they do to per-file findings.
    """
    summaries = [o.summary for o in outcomes if o.summary is not None]
    raw = run_project_rules(ProjectGraph(summaries))
    by_path: dict[str, tuple[Suppression, ...]] = {
        o.report.path: o.suppressions for o in outcomes
    }
    kept: list[Finding] = []
    suppressed = 0
    for finding in raw:
        file_kept, file_suppressed = apply_suppressions(
            [finding], list(by_path.get(finding.path, ()))
        )
        kept.extend(file_kept)
        suppressed += file_suppressed
    return kept, suppressed


def lint_paths(
    root: str | Path,
    paths: Sequence[str] | None = None,
    jobs: int = 1,
    baseline: Baseline | None = None,
    rules: Iterable[Rule] | None = None,
) -> LintResult:
    """Lint a tree and merge the per-file reports into one result.

    ``jobs > 1`` fans files across worker processes; output is
    byte-identical to the serial run because findings carry their own
    ordering.  ``rules`` (tests only) bypasses the per-file default
    registry lookup — parallel runs always use the full default pack.

    A full default run (no path filter, no rule filter) additionally
    executes the whole-program pass: workers extract per-file summaries
    alongside their reports, the parent folds them into a
    :class:`~repro.lint.graph.ProjectGraph` and the W/T project rules
    run serially over it.
    """
    from ..pipeline.executors import make_executor

    root = Path(root).resolve()
    files = discover_files(root, paths)
    want_project = paths is None and rules is None
    payloads = [(str(root), rel, want_project) for rel in files]
    if rules is not None or jobs == 1:
        rule_list = list(rules) if rules is not None else None
        outcomes = []
        for root_str, rel, want_summary in payloads:
            source = (Path(root_str) / rel).read_text(encoding="utf-8")
            report = lint_source(rel, source, rule_list)
            if want_summary:
                suppressions, _ = parse_suppressions(rel, source)
                outcomes.append(
                    FileOutcome(
                        report=report,
                        summary=summarize_source(rel, source),
                        suppressions=tuple(suppressions),
                    )
                )
            else:
                outcomes.append(FileOutcome(report=report))
    else:
        with make_executor(jobs) as executor:
            outcomes = executor.map(_lint_file, payloads)
    findings = sorted(
        f for outcome in outcomes for f in outcome.report.findings
    )
    suppressed = sum(o.report.suppressed for o in outcomes)
    if want_project:
        project_findings, project_suppressed = _run_project_pass(outcomes)
        findings = sorted(findings + project_findings)
        suppressed += project_suppressed
    result = LintResult(
        root=root.as_posix(),
        files=len(files),
        findings=findings,
        suppressed=suppressed,
        unbaselined_findings=list(findings),
    )
    if baseline is not None:
        kept, baselined, stale = baseline.apply(findings)
        result.findings = kept
        result.baselined = baselined
        result.stale_baseline = stale
    return result
