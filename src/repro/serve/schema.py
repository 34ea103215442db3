"""Schema of the JSONL submit stream, and its stream rules.

A submission to ``POST /v1/submit`` is JSON Lines: each line is one JSON
object whose ``type`` field selects its shape:

* ``aggregate`` — one merged campaign aggregate in the exact versioned
  form of :meth:`~repro.campaign.sketches.CampaignAggregate.to_dict`,
  together with the SHA-256 ``digest`` the submitter computed over the
  canonical serialization.  The store recomputes the digest from the
  payload and rejects mismatches — a truncated or tampered submission can
  never land.
* ``manifest`` — one telemetry run manifest attached to a campaign.

The line shapes are one JSON Schema literal, :func:`json_schema`, checked
in as ``schemas/serve-submit.schema.json`` (a test keeps the two in sync)
and applied to every line by :func:`repro.io.schema.validate`.  Unknown
fields are rejected: anything a producer emits must be in the schema.
"""

from __future__ import annotations

import json
from typing import Any, Iterable

from ..io.schema import closed_object, validate

#: Version tag of the submit-stream format (bump on incompatible change).
SUBMIT_SCHEMA_ID = "repro-serve-submit/1"

#: Repository-relative path of the checked-in JSON Schema document.
SUBMIT_SCHEMA_PATH = "schemas/serve-submit.schema.json"


class SubmitSchemaError(ValueError):
    """Raised when a submission line does not conform to the schema."""


def _line(line_type: str, fields: dict[str, dict]) -> dict[str, Any]:
    """One ``oneOf`` variant: a closed object keyed by its ``type`` value."""
    return closed_object(
        {
            "type": {"enum": [line_type], "type": "string"},
            "campaign": {"minLength": 1, "type": "string"},
            "payload": {"type": "object"},
            **fields,
        },
        title=f"{line_type} line",
    )


def json_schema() -> dict[str, Any]:
    """The submit stream as a standard JSON Schema document (one line)."""
    return {
        "$schema": "https://json-schema.org/draft/2020-12/schema",
        "$id": SUBMIT_SCHEMA_ID,
        "title": "repro serve submit stream (one object per JSONL line)",
        "oneOf": [
            _line("aggregate", {"digest": {"type": "string"}}),
            _line("manifest", {}),
        ],
    }


def render_schema() -> str:
    """The checked-in schema file's exact text content."""
    return json.dumps(json_schema(), indent=2, sort_keys=True) + "\n"


_SCHEMA = json_schema()


def validate_submission(line: Any) -> str:
    """Check one decoded submission object; returns its type or raises."""
    validate(line, _SCHEMA, SubmitSchemaError)
    return line["type"]


def validate_submissions(lines: Iterable[Any]) -> dict[str, int]:
    """Validate a decoded submission stream; returns per-type counts."""
    counts: dict[str, int] = {}
    for index, line in enumerate(lines):
        try:
            line_type = validate_submission(line)
        except SubmitSchemaError as exc:
            raise SubmitSchemaError(f"line #{index}: {exc}") from None
        counts[line_type] = counts.get(line_type, 0) + 1
    if not counts:
        raise SubmitSchemaError("submission stream is empty")
    return counts
