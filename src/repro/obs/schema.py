"""Schema of the ``events.jsonl`` telemetry stream, and its stream rules.

Every line of an event stream is one JSON object whose ``type`` field
selects its shape:

* ``span`` — one closed span of the run hierarchy;
* ``stage`` — one pipeline stage outcome (the observer's record);
* ``message`` — a free-form progress message;
* ``access`` — one served HTTP request (the RED access-log record);
* ``heartbeat`` — one campaign progress beat (shards done/total, rates,
  ETA) mirroring the atomically-rewritten ``progress.json``;
* ``metrics`` — the final metric snapshot (last line of a finished run).

The event shapes are written below as one JSON Schema literal,
:func:`json_schema`, rendered verbatim to the checked-in
``schemas/telemetry-events.schema.json`` (the test suite asserts the file
is in sync).  :func:`validate_event` checks an event against that same
document with the shared interpreter :func:`repro.io.schema.validate`;
:func:`validate_events` adds the stream rules a schema cannot state.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Iterable

from ..io.schema import closed_object, validate
from .sinks import read_events
from .spans import SPAN_KINDS

#: Version tag of the event-stream format (bump on incompatible change).
EVENTS_SCHEMA_ID = "repro-telemetry-events/1"

#: Repository-relative path of the checked-in JSON Schema document.
SCHEMA_PATH = "schemas/telemetry-events.schema.json"


class SchemaError(ValueError):
    """Raised when an event does not conform to the stream schema."""


_STRING = {"type": "string"}
_INTEGER = {"type": "integer"}
_NUMBER = {"type": "number"}
_OBJECT = {"type": "object"}


def _event(event_type: str, required: dict, optional: dict | None = None) -> dict:
    """One ``oneOf`` variant: a closed object keyed by its ``type`` value."""
    keyed = {"type": {"enum": [event_type], "type": "string"}, **required}
    return closed_object(
        {**keyed, **(optional or {})}, keyed, title=f"{event_type} event"
    )


def json_schema() -> dict[str, Any]:
    """The stream schema as a standard JSON Schema document.

    This is the generator of the checked-in
    ``schemas/telemetry-events.schema.json``; regenerate with::

        python -m repro.obs.schema

    after changing an event shape here.
    """
    number_or_null = {"type": ["number", "null"]}
    string_or_null = {"type": ["string", "null"]}
    return {
        "$schema": "https://json-schema.org/draft/2020-12/schema",
        "$id": EVENTS_SCHEMA_ID,
        "title": "repro telemetry event stream (one object per JSONL line)",
        "oneOf": [
            _event(
                "access",
                {"route": _STRING, "method": _STRING, "status": _INTEGER,
                 "seconds": _NUMBER, "bytes": _INTEGER},
                {"trace": string_or_null},
            ),
            _event(
                "heartbeat",
                {"done": _INTEGER, "total": _INTEGER, "sessions": _INTEGER,
                 "rate": number_or_null, "eta_s": number_or_null,
                 "wave": _INTEGER, "elapsed_s": _NUMBER},
            ),
            _event("message", {"level": _STRING, "text": _STRING}),
            _event(
                "metrics",
                {"counters": _OBJECT, "gauges": _OBJECT, "histograms": _OBJECT},
            ),
            _event(
                "span",
                {"id": _INTEGER, "parent": {"type": ["integer", "null"]},
                 "name": _STRING,
                 "kind": {"enum": list(SPAN_KINDS), "type": "string"},
                 "start_s": _NUMBER, "wall_s": _NUMBER, "cpu_s": _NUMBER,
                 "status": {"enum": ["ok", "error"], "type": "string"},
                 "attrs": _OBJECT},
            ),
            _event(
                "stage",
                {"name": _STRING,
                 "status": {"enum": ["computed", "cached"], "type": "string"},
                 "seconds": _NUMBER},
                {"key": string_or_null,
                 "cache": {"enum": ["hit", "miss", None],
                           "type": ["string", "null"]},
                 "payload": {"type": ["object", "null"]}},
            ),
        ],
    }


_SCHEMA = json_schema()


def validate_event(event: Any) -> str:
    """Check one decoded event object; returns its type or raises.

    Unknown fields are rejected — the stream is an interchange format, so
    anything a producer emits must be in the schema.
    """
    validate(event, _SCHEMA, SchemaError)
    return event["type"]


def validate_events(events: Iterable[Any]) -> dict[str, int]:
    """Validate a sequence of events; returns per-type counts.

    A finished run's stream must contain at least one ``span`` event and
    end with exactly one ``metrics`` snapshot — both are checked here.
    """
    counts: dict[str, int] = {}
    last_type: str | None = None
    for index, event in enumerate(events):
        try:
            last_type = validate_event(event)
        except SchemaError as exc:
            raise SchemaError(f"event #{index}: {exc}") from None
        counts[last_type] = counts.get(last_type, 0) + 1
    if counts.get("span", 0) < 1:
        raise SchemaError("event stream contains no span events")
    if counts.get("metrics", 0) != 1 or last_type != "metrics":
        raise SchemaError(
            "event stream must end with exactly one metrics snapshot"
        )
    return counts


def validate_events_file(path: str | Path) -> dict[str, int]:
    """Validate one ``events.jsonl`` file; returns per-type counts."""
    return validate_events(read_events(path))


def render_schema() -> str:
    """The checked-in schema file's exact text content."""
    import json

    return json.dumps(json_schema(), indent=2, sort_keys=True) + "\n"


def _main(argv: list[str] | None = None) -> int:
    """Regenerate the checked-in schema, or validate a stream argument.

    ``python -m repro.obs.schema [--quiet] [events.jsonl]`` validates the
    stream, or without a path regenerates the checked-in document.  CI
    relies on the exit codes: ``0`` valid (or regenerated), ``1`` invalid
    or unreadable, ``2`` usage error.  ``--quiet`` drops the success line.
    """
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.schema",
        description=(
            "Validate a telemetry events.jsonl stream, or (with no path) "
            "regenerate the checked-in JSON Schema document."
        ),
    )
    parser.add_argument(
        "path", nargs="?", default=None, help="events.jsonl file to validate"
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the success line"
    )
    try:
        options = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pin both.
        return 2 if exc.code else 0
    if options.path is not None:
        try:
            counts = validate_events_file(options.path)
        except (SchemaError, OSError) as exc:
            print(f"{options.path}: invalid: {exc}", file=sys.stderr)
            return 1
        if not options.quiet:
            print(f"{options.path}: valid ({counts})")
        return 0
    path = Path(SCHEMA_PATH)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_schema())
    if not options.quiet:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover - module CLI
    raise SystemExit(_main())
