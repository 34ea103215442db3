"""Telemetry must be out-of-band: enabling it never changes any output."""

import numpy as np
import pytest

from repro.core.arrivals import ArrivalModel
from repro.core.generator import TrafficGenerator
from repro.core.service_mix import ServiceMix
from repro.obs.telemetry import Telemetry
from repro.pipeline.executors import make_executor


@pytest.fixture(scope="module")
def tiny_generator(bank):
    """Low-rate generator keeping the determinism checks fast."""
    arrival = ArrivalModel(peak_mu=2.0, peak_sigma=0.5, night_scale=0.4)
    mix = ServiceMix.from_table1().restricted_to(bank.services())
    return TrafficGenerator({0: arrival, 2: arrival}, mix, bank)


def _tables_identical(a, b) -> bool:
    return all(
        getattr(a, col).dtype == getattr(b, col).dtype
        and np.array_equal(getattr(a, col), getattr(b, col))
        for col in a.COLUMNS
    )


class TestGeneratorDeterminism:
    def test_chunk_stream_identical_with_telemetry(self, tiny_generator, tmp_path):
        plain = list(tiny_generator.iter_campaign_chunks(1, 11))
        telemetry = Telemetry(directory=tmp_path, verbosity=0)
        with telemetry.span("run:test", kind="run"):
            observed = list(
                tiny_generator.iter_campaign_chunks(1, 11, telemetry=telemetry)
            )
        telemetry.finalize()
        assert len(plain) == len(observed)
        for a, b in zip(plain, observed):
            assert a.units == b.units
            assert _tables_identical(a.table, b.table)

    def test_instrumented_executor_identical_output(self, tiny_generator):
        telemetry = Telemetry(verbosity=0)
        with make_executor(1) as plain_ex:
            plain = tiny_generator.generate_campaign(1, 7, executor=plain_ex)
        with make_executor(1, telemetry=telemetry) as obs_ex:
            observed = tiny_generator.generate_campaign(1, 7, executor=obs_ex)
        assert _tables_identical(plain, observed)


class TestPipelineDeterminism:
    def test_pipeline_cache_keys_identical_with_telemetry(self, tmp_path):
        from repro.io.cache import ArtifactCache
        from repro.pipeline.context import RunContext
        from repro.pipeline.stages import Pipeline
        from repro.pipeline.standard import network_stage, simulate_stage

        def run(cache_root, telemetry):
            ctx = RunContext(
                seed=9,
                cache=ArtifactCache(cache_root, telemetry=telemetry),
                telemetry=telemetry,
            )
            pipeline = Pipeline([network_stage(10), simulate_stage(1)])
            return pipeline.run(ctx).event("simulate")

        plain = run(tmp_path / "plain", None)
        telemetry = Telemetry(directory=tmp_path / "tel", verbosity=0)
        observed = run(tmp_path / "observed", telemetry)
        telemetry.finalize()
        assert plain.key == observed.key
        plain_artifact = next((tmp_path / "plain" / "campaign").iterdir())
        observed_artifact = next(
            (tmp_path / "observed" / "campaign").iterdir()
        )
        assert plain_artifact.name == observed_artifact.name
        assert plain_artifact.read_bytes() == observed_artifact.read_bytes()
