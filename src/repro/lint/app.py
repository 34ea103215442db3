"""Command-line front end shared by ``repro-traffic lint`` and ``-m``.

Exit codes follow CI conventions: ``0`` clean, ``1`` findings (or stale
baseline entries), ``2`` usage or environment errors.  The repository
root is auto-detected by walking upward from the working directory to
the nearest ``pyproject.toml``, so the command works from any subdir.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .baseline import (
    DEFAULT_BASELINE_PATH,
    Baseline,
    BaselineEntry,
    BaselineError,
)
from .driver import lint_paths
from .report import (
    REPORT_SCHEMA_PATH,
    render_human,
    render_json,
    render_schema,
)
from .rules import all_rules


def find_repo_root(start: str | Path | None = None) -> Path:
    """Nearest ancestor directory holding a ``pyproject.toml``.

    Falls back to the start directory itself when no marker is found
    (linting an exported subtree still works, scoped rules simply see
    relative paths).
    """
    current = Path(start or Path.cwd()).resolve()
    for candidate in (current, *current.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return current


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint flags (shared with the ``repro-traffic`` CLI)."""
    parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to lint (default: src tools benchmarks)",
    )
    parser.add_argument(
        "--root", default=None,
        help="repository root (default: nearest pyproject.toml upward)",
    )
    parser.add_argument(
        "--format", choices=("human", "json"), default="human",
        help="report format (json is the CI artifact form)",
    )
    parser.add_argument(
        "--output", default=None, metavar="FILE",
        help="also write the report in the chosen format to FILE",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the file fan-out (default 1 = serial)",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="FILE",
        help=f"baseline file (default: {DEFAULT_BASELINE_PATH})",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore the baseline (report grandfathered findings too)",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="rewrite the baseline from this run's findings and exit 0",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help=(
            "regenerate the baseline from this run's findings, keeping "
            "the justification of every surviving entry, and exit 0"
        ),
    )
    parser.add_argument(
        "--fail-on", choices=("error", "warning"), default="warning",
        help="minimum severity that fails the run (default: any finding)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "--write-report-schema", action="store_true",
        help=f"regenerate {REPORT_SCHEMA_PATH} and exit",
    )


def _list_rules() -> int:
    for rule in all_rules():
        print(f"{rule.id}  [{rule.severity:7s}]  {rule.title}")
        print(f"       {rule.rationale}")
    return 0


def run(args: argparse.Namespace) -> int:
    """Execute one lint invocation from parsed arguments."""
    if args.list_rules:
        return _list_rules()
    root = find_repo_root(args.root)
    if args.write_report_schema:
        path = root / REPORT_SCHEMA_PATH
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(render_schema(), encoding="utf-8")
        print(f"wrote {path}")
        return 0
    baseline_path = Path(
        args.baseline if args.baseline else root / DEFAULT_BASELINE_PATH
    )
    try:
        baseline = None if args.no_baseline else Baseline.load(baseline_path)
    except BaselineError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2
    try:
        result = lint_paths(
            root,
            paths=args.paths or None,
            jobs=args.jobs,
            baseline=baseline,
        )
    except FileNotFoundError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2
    if args.update_baseline:
        try:
            previous = Baseline.load(baseline_path)
        except BaselineError:
            previous = Baseline()
        justifications = {
            (e.rule, e.path, e.symbol): e.justification
            for e in previous.entries
        }
        updated = Baseline.from_findings(result.unbaselined_findings)
        updated.entries = [
            BaselineEntry(
                rule=e.rule,
                path=e.path,
                symbol=e.symbol,
                justification=justifications.get(
                    (e.rule, e.path, e.symbol), e.justification
                ),
            )
            for e in updated.entries
        ]
        updated.save(baseline_path)
        preserved = sum(
            1
            for e in updated.entries
            if (e.rule, e.path, e.symbol) in justifications
        )
        print(
            f"baseline updated: {baseline_path} "
            f"({len(updated.entries)} entries, {preserved} "
            "justifications preserved) — justify or fix every new entry "
            "before committing"
        )
        return 0
    if args.write_baseline:
        Baseline.from_findings(result.unbaselined_findings).save(
            baseline_path
        )
        print(
            f"baseline written: {baseline_path} "
            f"({len(result.unbaselined_findings)} findings) — justify or "
            "fix every entry before committing"
        )
        return 0
    text = (
        render_json(result)
        if args.format == "json"
        else render_human(result)
    )
    print(text)
    if args.output:
        Path(args.output).write_text(text + "\n", encoding="utf-8")
    return 1 if result.failed(args.fail_on) else 0


def main(argv: list[str] | None = None) -> int:
    """Standalone entry point (``python -m repro.lint``)."""
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "AST-based invariant checker: per-file determinism (D), "
            "parallel safety (P) and structural contracts (S), plus "
            "whole-program RNG provenance (W) and serve-stack thread "
            "safety (T) of the session-level traffic reproduction"
        ),
    )
    add_lint_arguments(parser)
    return run(parser.parse_args(argv))
