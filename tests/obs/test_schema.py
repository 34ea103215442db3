"""Tests for the event-stream schema, its stream rules and module CLI."""

import pytest

from repro.obs.schema import (
    SCHEMA_PATH,
    SchemaError,
    _main as schema_main,
    render_schema,
    validate_event,
    validate_events,
    validate_events_file,
)
from repro.obs.telemetry import Telemetry


def _finished_stream(tmp_path):
    """Produce a real finished run's events.jsonl and return its path."""
    telemetry = Telemetry(directory=tmp_path, verbosity=0)
    with telemetry.span("run:test", kind="run"):
        with telemetry.span("simulate", kind="stage"):
            telemetry.record_span("unit-0", "unit", 0.1, 0.1)
    telemetry.message("done")
    telemetry.finalize(command="test")
    return tmp_path / "events.jsonl"


class TestValidator:
    def test_real_run_stream_validates(self, tmp_path):
        counts = validate_events_file(_finished_stream(tmp_path))
        assert counts["span"] == 3
        assert counts["metrics"] == 1
        assert counts["message"] == 1

    def test_unknown_event_type_rejected(self):
        with pytest.raises(SchemaError, match="none of the 6 oneOf alternatives"):
            validate_event({"type": "bogus"})

    def test_missing_required_field_rejected(self):
        with pytest.raises(SchemaError, match="missing required field"):
            validate_event({"type": "message", "level": "info"})

    def test_unknown_extra_field_rejected(self):
        with pytest.raises(SchemaError, match="unknown fields"):
            validate_event(
                {"type": "message", "level": "info", "text": "x", "who": "me"}
            )

    def test_bad_enum_value_rejected(self):
        event = {
            "type": "span", "id": 0, "parent": None, "name": "x",
            "kind": "not-a-kind", "start_s": 0.0, "wall_s": 0.1,
            "cpu_s": 0.1, "status": "ok", "attrs": {},
        }
        with pytest.raises(SchemaError, match="kind"):
            validate_event(event)

    def test_stream_without_spans_rejected(self):
        metrics = {
            "type": "metrics", "counters": {}, "gauges": {}, "histograms": {},
        }
        with pytest.raises(SchemaError, match="no span events"):
            validate_events([metrics])

    def test_stream_must_end_with_one_metrics_snapshot(self, tmp_path):
        span = {
            "type": "span", "id": 0, "parent": None, "name": "x",
            "kind": "run", "start_s": 0.0, "wall_s": 0.1, "cpu_s": 0.1,
            "status": "ok", "attrs": {},
        }
        with pytest.raises(SchemaError, match="metrics snapshot"):
            validate_events([span])

    def test_corrupted_stream_file_rejected(self, tmp_path):
        path = _finished_stream(tmp_path)
        with path.open("a") as handle:
            handle.write('{"type": "span", "id": "not-an-int"}\n')
        with pytest.raises(SchemaError):
            validate_events_file(path)


class TestSchemaCli:
    """``python -m repro.obs.schema`` honours the 0/1/2 exit contract."""

    def test_valid_stream_exits_zero(self, tmp_path, capsys):
        path = _finished_stream(tmp_path)
        assert schema_main([str(path)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_quiet_suppresses_the_success_line(self, tmp_path, capsys):
        path = _finished_stream(tmp_path)
        assert schema_main(["--quiet", str(path)]) == 0
        assert capsys.readouterr().out == ""

    def test_invalid_stream_exits_one(self, tmp_path, capsys):
        path = _finished_stream(tmp_path)
        with path.open("a") as handle:
            handle.write('{"type": "bogus"}\n')
        assert schema_main([str(path)]) == 1
        assert "invalid" in capsys.readouterr().err

    def test_missing_file_exits_one(self, tmp_path, capsys):
        assert schema_main([str(tmp_path / "absent.jsonl")]) == 1
        assert "invalid" in capsys.readouterr().err

    def test_usage_errors_exit_two(self, capsys):
        assert schema_main(["--bogus-flag"]) == 2
        assert schema_main(["a.jsonl", "b.jsonl"]) == 2
        capsys.readouterr()  # drain argparse noise

    def test_regenerate_writes_the_checked_in_document(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert schema_main(["--quiet"]) == 0
        written = tmp_path / SCHEMA_PATH
        assert written.read_text() == render_schema()
        assert capsys.readouterr().out == ""
