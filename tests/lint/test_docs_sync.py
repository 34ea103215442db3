"""The rule catalog in docs/LINTING.md mirrors the registry exactly.

Every registered rule must own a ``| Xnnn | severity | ... |`` row, and
every row must name a registered rule, so the catalog cannot drift from
the linter it documents.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.lint import all_rules

REPO_ROOT = Path(__file__).resolve().parents[2]
DOC_PATH = REPO_ROOT / "docs" / "LINTING.md"

#: A catalog table row: ``| D101 | error | ... |``.
ROW = re.compile(r"^\| ([A-Z][0-9]{3}) \| (error|warning) \|", re.MULTILINE)


def _doc_rows() -> dict[str, str]:
    text = DOC_PATH.read_text(encoding="utf-8")
    return {match.group(1): match.group(2) for match in ROW.finditer(text)}


def test_every_registered_rule_has_a_catalog_row():
    rows = _doc_rows()
    missing = [rule.id for rule in all_rules() if rule.id not in rows]
    assert missing == [], f"rules missing from docs/LINTING.md: {missing}"


def test_every_catalog_row_names_a_registered_rule():
    known = {rule.id for rule in all_rules()}
    ghosts = sorted(set(_doc_rows()) - known)
    assert ghosts == [], f"docs/LINTING.md documents unknown rules: {ghosts}"


def test_documented_severity_matches_registry():
    rows = _doc_rows()
    mismatched = [
        (rule.id, rule.severity, rows[rule.id])
        for rule in all_rules()
        if rule.id in rows and rows[rule.id] != rule.severity
    ]
    assert mismatched == []


def test_new_series_sections_exist():
    text = DOC_PATH.read_text(encoding="utf-8")
    for heading in ("W-series", "T-series"):
        assert heading in text, f"docs/LINTING.md lacks a {heading} section"
