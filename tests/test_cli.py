"""Tests for the command-line interface."""

import argparse
import re
from pathlib import Path

import pytest

from repro.cli import _build_parser, main

USAGE_DOC = Path(__file__).resolve().parents[1] / "docs" / "USAGE.md"


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path_factory, monkeypatch):
    """Point the artifact cache at a per-test directory.

    The cache is on by default, so without this every CLI test would write
    ``.repro-cache`` into the working directory and later tests could hit
    artifacts cached by earlier ones.
    """
    cache_dir = tmp_path_factory.mktemp("repro-cache")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))


def test_every_flag_is_documented():
    """Every long option of every subcommand appears in docs/USAGE.md.

    Whole-word match: ``--follow`` in the text does not document
    ``--follow-timeout``.
    """
    usage = USAGE_DOC.read_text(encoding="utf-8")
    parsers = [_build_parser()]
    flags: set[str] = set()
    while parsers:
        parser = parsers.pop()
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
            flags.update(
                option
                for option in action.option_strings
                if option.startswith("--") and option != "--help"
            )
    missing = [
        flag
        for flag in sorted(flags)
        if not re.search(re.escape(flag) + r"(?![A-Za-z0-9_.\-])", usage)
    ]
    assert missing == [], f"flags missing from docs/USAGE.md: {missing}"


class TestCli:
    def test_simulate_prints_summary(self, capsys):
        assert main(["--seed", "1", "simulate", "--bs", "10", "--days", "1"]) == 0
        out = capsys.readouterr().out
        assert "sessions:" in out
        assert "Facebook" in out

    def test_fit_writes_release(self, tmp_path, capsys):
        path = tmp_path / "models.json"
        code = main(
            ["--seed", "1", "fit", "--bs", "10", "--days", "1", "--output", str(path)]
        )
        assert code == 0
        assert path.exists()
        assert "fitted" in capsys.readouterr().out

    def test_generate_from_release(self, tmp_path, capsys):
        path = tmp_path / "models.json"
        main(["--seed", "1", "fit", "--bs", "10", "--days", "1", "--output", str(path)])
        capsys.readouterr()
        code = main(
            [
                "--seed", "2", "generate", "--models", str(path),
                "--bs", "2", "--days", "1", "--decile", "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "generated" in out

    def test_generate_parallel_chunked_writes_trace(self, tmp_path, capsys):
        models = tmp_path / "models.json"
        main(
            ["--seed", "1", "fit", "--bs", "10", "--days", "1",
             "--output", str(models)]
        )
        capsys.readouterr()
        trace = tmp_path / "generated.csv.gz"
        code = main(
            [
                "--seed", "2", "generate", "--models", str(models),
                "--bs", "3", "--days", "1", "--decile", "2",
                "--jobs", "2", "--chunk-size", "2000", "--trace", str(trace),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "chunk(s)" in out
        assert trace.exists()

    def test_generate_streams_identical_trace_and_caches_nothing(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.core.generator import TrafficGenerator
        from repro.core.service_mix import ServiceMix
        from repro.io.params import load_release
        from repro.io.traces import write_trace

        cache_dir = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        models = tmp_path / "models.json"
        main(
            ["--seed", "1", "fit", "--bs", "10", "--days", "1",
             "--output", str(models)]
        )
        argv = [
            "--seed", "2", "generate", "--models", str(models),
            "--bs", "3", "--days", "1", "--decile", "2",
        ]
        serial, parallel = tmp_path / "serial.csv.gz", tmp_path / "par.csv.gz"
        assert main(argv + ["--jobs", "1", "--trace", str(serial)]) == 0
        assert main(
            argv + ["--jobs", "2", "--chunk-size", "2000",
                    "--trace", str(parallel)]
        ) == 0
        out = capsys.readouterr().out
        assert "in 1 chunk(s)" in out and "in 3 chunk(s)" in out
        assert serial.read_bytes() == parallel.read_bytes()
        # The streamed file equals a one-shot export of the whole campaign.
        bank, arrivals = load_release(models)
        mix = ServiceMix.from_table1().restricted_to(bank.services())
        generator = TrafficGenerator(
            {bs: arrivals["decile-2"] for bs in range(3)}, mix, bank
        )
        whole = tmp_path / "whole.csv.gz"
        write_trace(generator.generate_campaign(1, 2), whole)
        assert serial.read_bytes() == whole.read_bytes()
        assert not (cache_dir / "generated").exists()

    def test_missing_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main([])


class TestReproduce:
    def test_fig10_reproduction(self, capsys):
        assert main(["--seed", "3", "reproduce", "fig10"]) == 0
        out = capsys.readouterr().out
        assert "Fig 10" in out
        assert "Twitch" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["reproduce", "fig99"])


class TestValidate:
    def test_validate_healthy_trace(self, tmp_path, campaign, capsys):
        from repro.io.traces import write_trace
        from tests.conftest import CAMPAIGN_DAYS

        path = tmp_path / "trace.csv.gz"
        write_trace(campaign.select(campaign.bs_id < 3), path)
        code = main(
            ["validate", "--trace", str(path), "--days", str(CAMPAIGN_DAYS)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: OK" in out

    def test_validate_flags_missing_days(self, tmp_path, campaign, capsys):
        from repro.io.traces import write_trace

        path = tmp_path / "trace.csv"
        write_trace(campaign.for_days([0]), path)
        code = main(["validate", "--trace", str(path), "--days", "3"])
        out = capsys.readouterr().out
        assert code == 1
        assert "verdict: FAILED" in out


class TestPipelineFlags:
    def test_fit_jobs_byte_identical(self, tmp_path, capsys):
        """``--jobs N`` must not change the fitted release at all."""
        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"
        base = ["--seed", "5", "fit", "--bs", "10", "--days", "1", "--no-cache"]
        assert main(base + ["--jobs", "1", "--output", str(serial)]) == 0
        assert main(base + ["--jobs", "2", "--output", str(parallel)]) == 0
        capsys.readouterr()
        assert serial.read_bytes() == parallel.read_bytes()

    def test_validate_second_run_hits_cache(self, capsys):
        args = ["--seed", "6", "validate", "--bs", "10", "--days", "1"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "simulate: computed" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "simulate: cache hit" in second

    def test_no_cache_disables_reuse(self, capsys):
        args = ["--seed", "6", "validate", "--bs", "10", "--days", "1",
                "--no-cache"]
        main(args)
        main(args)
        out = capsys.readouterr().out
        assert "cache hit" not in out

    def test_cache_dir_flag_overrides_env(self, tmp_path, capsys):
        cache_dir = tmp_path / "explicit-cache"
        args = ["--seed", "6", "validate", "--bs", "10", "--days", "1",
                "--cache-dir", str(cache_dir)]
        assert main(args) == 0
        capsys.readouterr()
        assert (cache_dir / "campaign").exists()

    def test_simulate_with_jobs_matches_serial(self, capsys):
        base = ["--seed", "7", "simulate", "--bs", "10", "--days", "1",
                "--no-cache"]
        main(base + ["--jobs", "1"])
        serial = capsys.readouterr().out
        main(base + ["--jobs", "2"])
        parallel = capsys.readouterr().out
        # Identical session counts and service table, stage timings aside.
        def summary(out):
            return [
                line for line in out.splitlines()
                if not line.startswith("[pipeline]")
            ]

        assert summary(serial) == summary(parallel)
        assert "sessions:" in serial


class TestVerify:
    """The ``verify`` subcommand drives the statistical fidelity gate."""

    @pytest.fixture()
    def golden_path(self):
        from repro.verify import default_baseline_path

        return default_baseline_path()

    def test_verify_passes_against_golden_baseline(self, golden_path, capsys):
        code = main(
            ["--seed", "0", "verify", "--baseline", str(golden_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: OK" in out
        assert "rank-exponential-r2" in out
        assert "FAIL" not in out

    def test_verify_writes_json_report(self, golden_path, tmp_path, capsys):
        from repro.verify import FidelityReport

        report_path = tmp_path / "fidelity.json"
        code = main(
            ["--seed", "0", "verify", "--baseline", str(golden_path),
             "--report", str(report_path)]
        )
        assert code == 0
        assert "report:" in capsys.readouterr().out
        report = FidelityReport.load(report_path)
        assert report.ok
        assert len(report.claims()) >= 6
        assert report.meta["seed"] == 0

    def test_verify_fails_on_breached_band(self, golden_path, tmp_path, capsys):
        import json

        # Doctor one claim into an impossible band: the gate must exit 1.
        payload = json.loads(golden_path.read_text())
        band = payload["claims"]["circadian-day-night-ratio"]
        band["lo"], band["hi"] = 100.0, 200.0
        doctored = tmp_path / "impossible.json"
        doctored.write_text(json.dumps(payload))

        code = main(["--seed", "0", "verify", "--baseline", str(doctored)])
        out = capsys.readouterr().out
        assert code == 1
        assert "verdict: FAILED" in out
        assert "FAIL" in out

    def test_update_baseline_rewrites_observations_only(
        self, golden_path, tmp_path, capsys
    ):
        import json
        import shutil

        from repro.verify import Baseline

        copy = tmp_path / "baseline.json"
        shutil.copy(golden_path, copy)
        # Blank out the recorded observations so the refresh is visible.
        payload = json.loads(copy.read_text())
        for band in payload["claims"].values():
            band.pop("observed", None)
        copy.write_text(json.dumps(payload))

        code = main(
            ["--seed", "0", "verify", "--baseline", str(copy),
             "--update-baseline"]
        )
        assert code == 0
        assert "refreshed" in capsys.readouterr().out
        before = Baseline.load(golden_path)
        after = Baseline.load(copy)
        for key, band in after.claims.items():
            assert band.observed is not None
            assert band.lo == before.claims[key].lo
            assert band.hi == before.claims[key].hi
            assert band.provenance == before.claims[key].provenance


class TestTelemetry:
    """The telemetry flags: event stream, manifest, report, verbosity."""

    def _fit_release(self, tmp_path, capsys):
        models = tmp_path / "models.json"
        main(["--seed", "1", "fit", "--bs", "10", "--days", "1",
              "--output", str(models)])
        capsys.readouterr()
        return models

    def test_generate_writes_events_and_manifest(self, tmp_path, capsys):
        import json

        models = self._fit_release(tmp_path, capsys)
        tel = tmp_path / "telemetry"
        code = main(
            ["--seed", "2", "generate", "--models", str(models),
             "--bs", "2", "--days", "1", "--jobs", "2",
             "--telemetry-dir", str(tel)]
        )
        assert code == 0
        from repro.obs.schema import validate_events_file

        counts = validate_events_file(tel / "events.jsonl")
        assert counts["span"] >= 1
        assert counts["stage"] >= 1
        assert counts["metrics"] == 1
        manifest = json.loads((tel / "manifest.json").read_text())
        assert manifest["command"] == "generate"
        assert manifest["seed"] == 2
        assert manifest["status"] == "ok"
        assert [s["name"] for s in manifest["stages"]] == ["generate"]
        assert "generator.sessions" in manifest["metrics"]["counters"]
        assert manifest["spans"]["by_kind"].get("worker", 0) >= 1

    def test_report_renders_previous_run(self, tmp_path, capsys):
        models = self._fit_release(tmp_path, capsys)
        tel = tmp_path / "telemetry"
        main(["--seed", "2", "generate", "--models", str(models),
              "--bs", "2", "--days", "1", "--telemetry-dir", str(tel)])
        capsys.readouterr()
        assert main(["report", str(tel)]) == 0
        out = capsys.readouterr().out
        assert "command:       generate" in out
        assert "generator.sessions" in out
        assert "Slowest spans:" in out

    def test_report_missing_directory_fails(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope")]) == 1
        assert "report error" in capsys.readouterr().err

    def test_quiet_silences_pipeline_lines(self, capsys):
        args = ["--seed", "6", "validate", "--bs", "10", "--days", "1",
                "--no-cache"]
        assert main(args + ["-q"]) in (0, 1)
        out = capsys.readouterr().out
        assert "[pipeline]" not in out
        assert "verdict:" in out  # results still print

    def test_log_json_emits_machine_readable_stage_lines(self, capsys):
        import json

        args = ["--seed", "6", "validate", "--bs", "10", "--days", "1",
                "--no-cache", "--log-json"]
        main(args)
        out = capsys.readouterr().out
        stage_lines = [
            json.loads(line) for line in out.splitlines()
            if line.startswith("{")
        ]
        assert any(
            line["type"] == "stage" and line["name"] == "simulate"
            for line in stage_lines
        )
        assert "[pipeline]" not in out

    def test_verify_metrics_reach_manifest(self, tmp_path, capsys):
        import json

        tel = tmp_path / "telemetry"
        code = main(["--seed", "0", "verify", "--telemetry-dir", str(tel)])
        capsys.readouterr()
        assert code == 0
        manifest = json.loads((tel / "manifest.json").read_text())
        counters = manifest["metrics"]["counters"]
        assert counters["verify.checks"] >= 6
        assert counters["verify.failed"] == 0
        assert any(
            name.startswith("verify.value.")
            for name in manifest["metrics"]["gauges"]
        )

    def test_telemetry_does_not_change_generated_trace(self, tmp_path, capsys):
        models = self._fit_release(tmp_path, capsys)
        plain = tmp_path / "plain.csv.gz"
        observed = tmp_path / "observed.csv.gz"
        base = ["--seed", "2", "generate", "--models", str(models),
                "--bs", "2", "--days", "1", "--no-cache"]
        assert main(base + ["--trace", str(plain)]) == 0
        assert main(
            base + ["--trace", str(observed),
                    "--telemetry-dir", str(tmp_path / "tel")]
        ) == 0
        capsys.readouterr()
        assert plain.read_bytes() == observed.read_bytes()

    def test_profile_writes_stage_pstats(self, tmp_path, capsys):
        tel = tmp_path / "telemetry"
        code = main(["--seed", "6", "validate", "--bs", "10", "--days", "1",
                     "--no-cache", "--telemetry-dir", str(tel), "--profile"])
        capsys.readouterr()
        assert code == 0
        assert (tel / "profile-simulate.pstats").exists()


class TestUsageErrors:
    """Library errors from bad paths print one line and exit 2."""

    def _assert_one_line(self, capsys, needle):
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert needle in err

    def test_verify_outside_the_repo(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("REPRO_BASELINE", raising=False)
        assert main(["--seed", "0", "verify"]) == 2
        self._assert_one_line(capsys, "paper_claims.json")

    @pytest.mark.parametrize("command", ["generate", "campaign"])
    def test_missing_release(self, tmp_path, capsys, command):
        missing = str(tmp_path / "absent.json")
        argv = [command, "--models", missing, "--bs", "1", "--days", "1"]
        assert main(["--seed", "0", *argv]) == 2
        self._assert_one_line(capsys, "absent.json")

    def test_fit_from_missing_trace(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.csv")
        argv = ["fit", "--from-trace", missing, "--output", "x.json"]
        assert main(["--seed", "0", *argv]) == 2
        self._assert_one_line(capsys, "absent.csv")

    def test_generate_trace_into_missing_directory(
        self, tmp_path, bank, capsys
    ):
        from repro.core.arrivals import ArrivalModel
        from repro.io.params import save_release

        release = tmp_path / "release.json"
        save_release(
            release,
            bank,
            {"d1": ArrivalModel(peak_mu=2.0, peak_sigma=0.5, night_scale=0.4)},
        )
        trace = str(tmp_path / "absent" / "out.csv")
        argv = ["generate", "--models", str(release), "--bs", "1",
                "--days", "1", "--trace", trace]
        assert main(["--seed", "0", *argv]) == 2
        self._assert_one_line(capsys, "out.csv")


class TestTraceFlags:
    def test_simulate_exports_trace(self, tmp_path, capsys):
        path = tmp_path / "campaign.csv.gz"
        code = main(
            ["--seed", "4", "simulate", "--bs", "10", "--days", "1",
             "--trace", str(path)]
        )
        assert code == 0
        assert path.exists()
        assert "trace:" in capsys.readouterr().out

    def test_fit_from_trace(self, tmp_path, capsys):
        trace = tmp_path / "campaign.csv.gz"
        main(["--seed", "4", "simulate", "--bs", "10", "--days", "1",
              "--trace", str(trace)])
        capsys.readouterr()
        release = tmp_path / "models.json"
        code = main(
            ["fit", "--from-trace", str(trace), "--output", str(release)]
        )
        assert code == 0
        assert release.exists()
        assert "from" in capsys.readouterr().out
