"""The one JSON-Schema interpreter and the four documents it validates.

Every interchange format is one JSON Schema document checked in under
``schemas/``, generated from a schema literal in code.  This module pins
each file to its generator, keeps the documents inside the keyword subset
that :func:`repro.io.schema.validate` interprets, and checks that the
interpreter and a Draft 2020-12 implementation (the ``jsonschema``
package, where installed) agree on accept or reject for fixtures of every
format.
"""

from __future__ import annotations

import copy
from pathlib import Path

import pytest

from repro.io.schema import validate
from repro.lint import report as lint_report
from repro.obs import schema as event_schema
from repro.obs.telemetry import Telemetry
from repro.serve import openapi
from repro.serve import schema as submit_schema

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Every assertion keyword the interpreter implements.
SUPPORTED = {
    "type", "enum", "const", "minLength", "properties", "required",
    "additionalProperties", "items", "oneOf", "$ref",
}

#: Keywords that annotate and assert nothing.
ANNOTATIONS = {"$schema", "$id", "title", "description"}


@pytest.mark.parametrize(
    "path, render, command",
    [
        (
            event_schema.SCHEMA_PATH,
            event_schema.render_schema,
            "python -m repro.obs.schema",
        ),
        (
            submit_schema.SUBMIT_SCHEMA_PATH,
            submit_schema.render_schema,
            "python -c 'import pathlib, repro.serve.schema as s; "
            "pathlib.Path(s.SUBMIT_SCHEMA_PATH).write_text(s.render_schema())'",
        ),
        (openapi.SPEC_PATH, openapi.render_spec, "python -m repro.serve.openapi"),
        (
            lint_report.REPORT_SCHEMA_PATH,
            lint_report.render_schema,
            "python -m repro.lint --write-report-schema",
        ),
    ],
    ids=["telemetry-events", "serve-submit", "openapi-serve", "lint-report"],
)
def test_checked_in_schema_is_current(path, render, command):
    """Each checked-in document is its generator's exact output."""
    checked_in = (REPO_ROOT / path).read_text(encoding="utf-8")
    assert checked_in == render(), f"{path} is stale; regenerate: {command}"


def _schema_keywords(schema: dict) -> set[str]:
    """Keywords used by ``schema`` and every subschema it nests."""
    found = set(schema)
    for subschema in schema.get("properties", {}).values():
        found |= _schema_keywords(subschema)
    for subschema in schema.get("oneOf", []):
        found |= _schema_keywords(subschema)
    if "items" in schema:
        found |= _schema_keywords(schema["items"])
    return found


def test_documents_stay_inside_the_interpreted_subset():
    """A keyword the interpreter ignores would silently accept anything."""
    spec = openapi.openapi_spec()
    roots = [
        event_schema.json_schema(),
        submit_schema.json_schema(),
        lint_report.json_schema(),
        *spec["components"]["schemas"].values(),
    ]
    used = set().union(*(_schema_keywords(root) for root in roots))
    assert used - ANNOTATIONS <= SUPPORTED


class TestInterpreter:
    def test_integer_is_a_number_but_a_bool_is_not_an_integer(self):
        validate(3, {"type": "number"})
        validate(3.0, {"type": "integer"})
        with pytest.raises(ValueError, match="expected integer, got boolean"):
            validate(True, {"type": "integer"})
        with pytest.raises(ValueError, match="expected integer, got number"):
            validate(3.5, {"type": "integer"})

    def test_const_and_enum_tell_true_from_one(self):
        validate(1, {"const": 1})
        with pytest.raises(ValueError, match="is not 1"):
            validate(True, {"const": 1})
        with pytest.raises(ValueError, match="not in"):
            validate(True, {"enum": [1, "x"]})

    def test_errors_name_the_json_path(self):
        schema = {
            "type": "object",
            "properties": {"rows": {"type": "array", "items": {"type": "string"}}},
        }
        with pytest.raises(KeyError, match=r"\$\.rows\[1\]: expected string"):
            validate({"rows": ["a", 2]}, schema, KeyError)

    def test_local_refs_resolve_against_the_root(self):
        root = {"defs": {"a/b": {"type": "string"}}}
        validate("x", {"$ref": "#/defs/a~1b"}, root=root)
        with pytest.raises(ValueError, match="unresolvable"):
            validate("x", {"$ref": "#/defs/missing"}, root=root)
        with pytest.raises(ValueError, match="unresolvable"):
            validate("x", {"$ref": "other.json#/defs"}, root=root)

    def test_one_of_rejects_double_matches(self):
        schema = {"oneOf": [{"type": "number"}, {"type": "integer"}]}
        validate(1.5, schema)
        with pytest.raises(ValueError, match="matches 2 oneOf"):
            validate(1, schema)


# ----------------------------------------------------------------------
# Agreement with Draft 2020-12, fixture by fixture
# ----------------------------------------------------------------------
def _stream_events(tmp_path: Path) -> list[dict]:
    """Every event of a real finished run (span, message, metrics)."""
    import json

    telemetry = Telemetry(directory=tmp_path, verbosity=0)
    with telemetry.span("run:test", kind="run"):
        telemetry.record_span("unit-0", "unit", 0.1, 0.1)
    telemetry.message("done")
    telemetry.finalize(command="test")
    lines = (tmp_path / "events.jsonl").read_text().splitlines()
    return [json.loads(line) for line in lines]


HEARTBEAT = {
    "type": "heartbeat", "done": 1, "total": 2, "sessions": 10,
    "rate": None, "eta_s": None, "wave": 0, "elapsed_s": 0.5,
}
ACCESS = {
    "type": "access", "route": "/v1/campaigns", "method": "GET",
    "status": 200, "seconds": 0.25, "bytes": 12,
}
STAGE = {"type": "stage", "name": "fit", "status": "computed", "seconds": 1.5}


def _event_cases():
    return [
        ("heartbeat", HEARTBEAT, True),
        ("access", ACCESS, True),
        ("stage", STAGE, True),
        ("null-in-string-or-null", {**STAGE, "key": None, "cache": None}, True),
        ("integer-for-number", {**ACCESS, "seconds": 1}, True),
        ("bool-for-integer", {**ACCESS, "status": True}, False),
        ("unknown-event-type", {"type": "bogus"}, False),
        ("extra-field", {**ACCESS, "who": "me"}, False),
        ("missing-field", {"type": "message", "level": "info"}, False),
        ("bad-enum", {**STAGE, "cache": "maybe"}, False),
        ("not-an-object", ["span"], False),
    ]


def _submit_cases():
    aggregate = {
        "type": "aggregate", "campaign": "c", "digest": "ab", "payload": {},
    }
    return [
        ("aggregate", aggregate, True),
        ("manifest", {"type": "manifest", "campaign": "c", "payload": {}}, True),
        ("empty-campaign", {**aggregate, "campaign": ""}, False),
        ("unknown-type", {**aggregate, "type": "mystery"}, False),
        ("manifest-with-digest", {**aggregate, "type": "manifest"}, False),
        ("missing-digest", {k: v for k, v in aggregate.items() if k != "digest"}, False),
        ("payload-not-object", {**aggregate, "payload": []}, False),
    ]


def _report():
    return {
        "version": 1,
        "root": "/repo",
        "counts": {
            "files": 3, "findings": 1, "errors": 1, "warnings": 0,
            "suppressed": 2, "baselined": 1, "stale_baseline": 1,
        },
        "findings": [
            {
                "rule": "D102", "severity": "error", "path": "x.py",
                "line": 4, "col": 0, "message": "m", "symbol": "f",
            }
        ],
        "stale_baseline": [
            {"rule": "S305", "path": "y.py", "symbol": "g", "justification": "j"}
        ],
    }


def _mutated(mutate) -> dict:
    report = _report()
    mutate(report)
    return report


def _report_cases():
    return [
        ("valid", _report(), True),
        # Six shapes the pre-interpreter validator accepted by mistake.
        ("extra-top-level-key", _mutated(lambda r: r.update(extra=1)), False),
        ("extra-counts-key", _mutated(lambda r: r["counts"].update(x=1)), False),
        ("counts-files-bool", _mutated(lambda r: r["counts"].update(files=True)), False),
        ("root-not-string", _mutated(lambda r: r.update(root=3)), False),
        ("finding-extra-key", _mutated(lambda r: r["findings"][0].update(x=1)), False),
        ("findings-object", _mutated(lambda r: r.update(findings={})), False),
        ("version-bool", _mutated(lambda r: r.update(version=True)), False),
        ("version-99", _mutated(lambda r: r.update(version=99)), False),
        ("bad-severity", _mutated(lambda r: r["findings"][0].update(severity="fatal")), False),
    ]


PDF = {
    "campaign": "c", "digest": "d", "axis": "duration_s",
    "edges": [0, 1.5], "density": [0.5], "samples": 3,
}


def _response_cases():
    """``(path, status, method, payload, spec-or-None, expected)`` rows."""
    broken = copy.deepcopy(openapi.openapi_spec())
    content = broken["paths"]["/v1/pdf/volume"]["get"]["responses"]["200"]
    content["content"]["application/json"]["schema"] = {
        "$ref": "#/components/schemas/Missing"
    }
    entry = {
        "name": "c", "digest": "d", "sessions": 1, "units": 1, "shards": 1,
        "manifest": None, "trace": None,
    }
    return [
        ("pdf", "/v1/pdf/volume", 200, "get", PDF, None, True),
        ("integral-float-samples", "/v1/pdf/volume", 200, "get", {**PDF, "samples": 3.0}, None, True),
        ("fractional-samples", "/v1/pdf/volume", 200, "get", {**PDF, "samples": 3.5}, None, False),
        ("bad-axis", "/v1/pdf/volume", 200, "get", {**PDF, "axis": "x"}, None, False),
        ("campaign-list", "/v1/campaigns", 200, "get", {"campaigns": [entry], "count": 1}, None, True),
        ("entry-name-int", "/v1/campaigns", 200, "get", {"campaigns": [{**entry, "name": 3}], "count": 1}, None, False),
        ("error", "/v1/fidelity", 404, "get", {"error": "gone", "status": 404}, None, True),
        ("submit-result", "/v1/submit", 200, "post", {"ingested": 1, "campaigns": ["c"]}, None, True),
        ("not-modified", "/v1/fidelity", 304, "get", None, None, True),
        ("not-modified-with-body", "/v1/fidelity", 304, "get", {}, None, False),
        ("unresolvable-ref", "/v1/pdf/volume", 200, "get", PDF, broken, False),
    ]


def _jsonschema_accepts(value, document) -> bool:
    jsonschema = pytest.importorskip("jsonschema")
    referencing = pytest.importorskip("referencing")
    try:
        return jsonschema.Draft202012Validator(document).is_valid(value)
    except referencing.exceptions.Unresolvable:
        return False


def _interpreter_accepts(check, value) -> bool:
    try:
        check(value)
    except ValueError:
        return False
    return True


class TestAgreementWithDraft202012:
    @pytest.mark.parametrize(
        "value, expected",
        [pytest.param(v, e, id=i) for i, v, e in _event_cases()],
    )
    def test_telemetry_events(self, value, expected):
        document = event_schema.json_schema()
        assert _jsonschema_accepts(value, document) is expected
        assert _interpreter_accepts(event_schema.validate_event, value) is expected

    def test_real_stream_events(self, tmp_path):
        document = event_schema.json_schema()
        events = _stream_events(tmp_path)
        assert {event["type"] for event in events} == {"span", "message", "metrics"}
        for event in events:
            assert _jsonschema_accepts(event, document), event
            assert _interpreter_accepts(event_schema.validate_event, event), event

    @pytest.mark.parametrize(
        "value, expected",
        [pytest.param(v, e, id=i) for i, v, e in _submit_cases()],
    )
    def test_submit_lines(self, value, expected):
        document = submit_schema.json_schema()
        assert _jsonschema_accepts(value, document) is expected
        assert _interpreter_accepts(submit_schema.validate_submission, value) is expected

    @pytest.mark.parametrize(
        "value, expected",
        [pytest.param(v, e, id=i) for i, v, e in _report_cases()],
    )
    def test_lint_reports(self, value, expected):
        document = lint_report.json_schema()
        assert _jsonschema_accepts(value, document) is expected
        assert _interpreter_accepts(lint_report.validate_report, value) is expected

    @pytest.mark.parametrize(
        "path, status, method, value, spec, expected",
        [pytest.param(*row[1:], id=row[0]) for row in _response_cases()],
    )
    def test_served_responses(self, path, status, method, value, spec, expected):
        spec = openapi.openapi_spec() if spec is None else spec
        response = spec["paths"][path][method]["responses"][str(status)]
        if "content" in response:
            schema = response["content"]["application/json"]["schema"]
        else:
            schema = {"type": "null"}  # a body-less status: no body allowed
        document = {**schema, "components": spec["components"]}
        assert _jsonschema_accepts(value, document) is expected

        def check(payload):
            openapi.validate_response(path, status, payload, method=method, spec=spec)

        assert _interpreter_accepts(check, value) is expected
