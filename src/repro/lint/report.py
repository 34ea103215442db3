"""Lint reporters: human-readable lines and the machine JSON report.

The JSON form is an interchange format (CI uploads it as an artifact),
so its shape is pinned by a checked-in JSON Schema —
``schemas/lint-report.schema.json`` — generated by :func:`json_schema`
exactly like the telemetry schema is, and kept in sync by a test;
:func:`validate_report` checks a report against that same document.  The
report is deterministic: no timestamps, no host information, findings
pre-sorted by location.
"""

from __future__ import annotations

import json
from typing import Any

from ..io.schema import closed_object, validate
from .driver import LintResult

#: Version tag of the JSON report format (bump on incompatible change).
REPORT_VERSION = 1

#: Repository-relative path of the checked-in report schema.
REPORT_SCHEMA_PATH = "schemas/lint-report.schema.json"


def render_human(result: LintResult, verbose: bool = False) -> str:
    """One line per finding plus a summary tail, ready to print."""
    lines: list[str] = []
    for finding in result.findings:
        lines.append(
            f"{finding.location()}: {finding.rule} [{finding.severity}] "
            f"{finding.message} ({finding.symbol})"
        )
    for entry in result.stale_baseline:
        lines.append(
            f"{entry.path}: stale baseline entry {entry.rule} at "
            f"{entry.symbol} — the finding it excused is gone; delete it"
        )
    counts = result.counts()
    summary = (
        f"checked {counts['files']} files: "
        f"{counts['errors']} errors, {counts['warnings']} warnings"
    )
    extras = [
        f"{counts[key]} {label}"
        for key, label in (
            ("suppressed", "suppressed"),
            ("baselined", "baselined"),
            ("stale_baseline", "stale baseline entries"),
        )
        if counts[key]
    ]
    if extras:
        summary += " (" + ", ".join(extras) + ")"
    lines.append(summary)
    if verbose and not result.findings:
        lines.append("clean ✓")
    return "\n".join(lines)


def report_payload(result: LintResult) -> dict[str, Any]:
    """The JSON report as a plain dict (schema-conforming)."""
    return {
        "version": REPORT_VERSION,
        "root": result.root,
        "counts": result.counts(),
        "findings": [
            {
                "rule": f.rule,
                "severity": f.severity,
                "path": f.path,
                "line": f.line,
                "col": f.col,
                "message": f.message,
                "symbol": f.symbol,
            }
            for f in result.findings
        ],
        "stale_baseline": [
            {
                "rule": e.rule,
                "path": e.path,
                "symbol": e.symbol,
                "justification": e.justification,
            }
            for e in result.stale_baseline
        ],
    }


def render_json(result: LintResult) -> str:
    """The JSON report as deterministic, diff-friendly text."""
    return json.dumps(report_payload(result), indent=2, sort_keys=True)


def validate_report(payload: Any) -> None:
    """Check one decoded JSON report against :func:`json_schema`.

    Runs the shared interpreter :func:`repro.io.schema.validate` on the
    same document that is checked in; raises ``ValueError`` naming the
    JSON path of the first mismatch.
    """
    validate(payload, json_schema())


def json_schema() -> dict[str, Any]:
    """The report format as a standard JSON Schema document.

    Generator of the checked-in ``schemas/lint-report.schema.json``;
    regenerate with ``python -m repro.lint --write-report-schema`` after
    changing the report shape.
    """
    string, integer = {"type": "string"}, {"type": "integer"}
    counts = closed_object(
        {key: integer for key in ("files", "findings", "errors", "warnings",
                                  "suppressed", "baselined", "stale_baseline")}
    )
    severity = {"enum": ["error", "warning"], "type": "string"}
    finding = closed_object(
        {"rule": string, "severity": severity, "path": string, "line": integer,
         "col": integer, "message": string, "symbol": string}
    )
    stale = closed_object(
        {key: string for key in ("rule", "path", "symbol", "justification")}
    )
    report = closed_object(
        {"version": {"const": REPORT_VERSION, "type": "integer"},
         "root": string, "counts": counts,
         "findings": {"type": "array", "items": finding},
         "stale_baseline": {"type": "array", "items": stale}}
    )
    return {
        "$schema": "https://json-schema.org/draft/2020-12/schema",
        "$id": f"repro-lint-report/{REPORT_VERSION}",
        "title": "repro-lint JSON report",
        **report,
    }


def render_schema() -> str:
    """The checked-in report schema file's exact text content."""
    return json.dumps(json_schema(), indent=2, sort_keys=True) + "\n"
