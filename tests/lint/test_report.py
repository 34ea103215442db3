"""JSON report shape: payload, validator and the human form."""

from __future__ import annotations

import json

import pytest

from repro.lint import Finding, LintResult, render_human, render_json
from repro.lint.baseline import BaselineEntry
from repro.lint.report import report_payload, validate_report


def _result() -> LintResult:
    """A small result with one finding and one stale entry."""
    return LintResult(
        root="/repo",
        files=3,
        findings=[
            Finding(
                path="src/repro/core/x.py", line=4, col=0, rule="D102",
                severity="error", message="unseeded", symbol="build",
            ),
        ],
        suppressed=2,
        baselined=1,
        stale_baseline=[
            BaselineEntry("S305", "src/repro/core/gone.py", "old", "legacy"),
        ],
    )


def test_payload_validates():
    """The emitted payload conforms to its own validator."""
    validate_report(report_payload(_result()))


def test_json_render_is_deterministic():
    """Two renders of the same result are byte-identical (no timestamps)."""
    result = _result()
    text = render_json(result)
    assert text == render_json(result)
    assert "time" not in json.loads(text)


def test_json_round_trips():
    """The rendered report decodes back to the payload."""
    payload = json.loads(render_json(_result()))
    assert payload == report_payload(_result())
    assert payload["counts"]["errors"] == 1
    assert payload["counts"]["suppressed"] == 2
    assert len(payload["stale_baseline"]) == 1


@pytest.mark.parametrize("mutate, match", [
    (lambda p: p.pop("counts"), "counts"),
    (lambda p: p.update(version=99), "version"),
    (lambda p: p["findings"][0].pop("line"), "line"),
    (lambda p: p["findings"][0].update(severity="fatal"), "severity"),
    (lambda p: p["stale_baseline"][0].pop("justification"), "justification"),
])
def test_validator_rejects_mutations(mutate, match):
    """Each required part of the shape is actually enforced."""
    payload = report_payload(_result())
    mutate(payload)
    with pytest.raises(ValueError, match=match):
        validate_report(payload)


def test_human_report_summarizes():
    """The human form carries locations, staleness and the summary tail."""
    text = render_human(_result())
    assert "src/repro/core/x.py:4:0: D102" in text
    assert "stale baseline entry S305" in text
    assert "checked 3 files: 1 errors, 0 warnings" in text


def test_failed_logic():
    """Stale entries always fail; --fail-on error tolerates warnings."""
    result = _result()
    assert result.failed("warning")
    warning_only = LintResult(
        root="/repo", files=1,
        findings=[
            Finding(
                path="a.py", line=1, col=0, rule="S305",
                severity="warning", message="m",
            ),
        ],
    )
    assert warning_only.failed("warning")
    assert not warning_only.failed("error")
    stale_only = LintResult(
        root="/repo", files=1, findings=[],
        stale_baseline=[BaselineEntry("D102", "x.py", "f", "legacy")],
    )
    assert stale_only.failed("error")
