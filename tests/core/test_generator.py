"""Tests for the model-driven traffic generator."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.arrivals import ArrivalModel
from repro.core.generator import (
    DEFAULT_CHUNK_SESSIONS,
    GeneratorError,
    TrafficGenerator,
    generate_campaign_reference,
    unit_rng,
    unit_seed,
)
from repro.core.service_mix import ServiceMix
from repro.dataset.circadian import peak_minute_mask
from repro.dataset.records import SERVICE_NAMES, SessionArena, SessionTable

from ..conftest import GATE_N_BS, child_peak_rss

#: One streamed pass of the perf-gate workload (one day) through a reused
#: arena, run by :func:`child_peak_rss` in a fresh interpreter.
ARENA_STREAM = f"""
from benchmarks.bench_campaign import build_generator
from repro.core.generator import DEFAULT_CHUNK_SESSIONS
from repro.dataset.records import SessionArena
generator = build_generator({GATE_N_BS}, 1.0)
arena = SessionArena(capacity=int(DEFAULT_CHUNK_SESSIONS * 1.1))
for chunk in generator.iter_campaign_chunks(
    1, 0, chunk_sessions=DEFAULT_CHUNK_SESSIONS, arena=arena
):
    len(chunk.table)
"""


@pytest.fixture(scope="module")
def generator(bank):
    arrival = ArrivalModel(peak_mu=10.0, peak_sigma=1.0, night_scale=1.2)
    mix = ServiceMix.from_table1().restricted_to(bank.services())
    return TrafficGenerator({0: arrival, 1: arrival}, mix, bank)


class TestConstruction:
    def test_requires_arrival_models(self, bank):
        mix = ServiceMix.from_table1().restricted_to(bank.services())
        with pytest.raises(GeneratorError):
            TrafficGenerator({}, mix, bank)

    def test_mix_must_be_covered_by_bank(self, bank):
        # Uber is too rare in the small fixture campaign to be fitted.
        uncovered = [n for n in SERVICE_NAMES if n not in bank]
        if not uncovered:
            pytest.skip("fixture bank covers every service")
        mix = ServiceMix({uncovered[0]: 1.0})
        arrival = ArrivalModel(5.0, 0.5, 0.6)
        with pytest.raises(GeneratorError):
            TrafficGenerator({0: arrival}, mix, bank)


class TestGeneration:
    def test_day_table_schema(self, generator):
        day = generator.generate_bs_day(0, 0, np.random.default_rng(0))
        table = day.table
        assert len(table) == int(day.minute_counts.sum())
        assert np.all(table.bs_id == 0)
        assert np.all(table.day == 0)
        assert np.all(table.volume_mb > 0)
        assert np.all(table.duration_s >= 1.0)

    def test_day_counts_follow_arrival_model(self, generator):
        day = generator.generate_bs_day(0, 0, np.random.default_rng(1))
        mask = peak_minute_mask()
        assert day.minute_counts[mask].mean() == pytest.approx(10.0, rel=0.1)

    def test_unknown_bs_raises(self, generator):
        with pytest.raises(GeneratorError):
            generator.generate_bs_day(99, 0, np.random.default_rng(0))

    def test_campaign_covers_all_bs_and_days(self, generator):
        table = generator.generate_campaign(2, np.random.default_rng(2))
        assert set(np.unique(table.bs_id)) == {0, 1}
        assert set(np.unique(table.day)) == {0, 1}

    def test_campaign_rejects_zero_days(self, generator):
        with pytest.raises(GeneratorError):
            generator.generate_campaign(0, np.random.default_rng(0))

    def test_generated_mix_matches_requested(self, generator, bank):
        table = generator.generate_campaign(1, np.random.default_rng(3))
        fb = SERVICE_NAMES.index("Facebook")
        share = float((table.service_idx == fb).mean())
        expected = generator.mix.probability("Facebook")
        assert share == pytest.approx(expected, abs=0.02)


@pytest.fixture(scope="module")
def tiny_generator(bank):
    """Low-rate generator keeping determinism tests fast."""
    arrival = ArrivalModel(peak_mu=2.0, peak_sigma=0.5, night_scale=0.4)
    mix = ServiceMix.from_table1().restricted_to(bank.services())
    return TrafficGenerator({0: arrival, 3: arrival, 7: arrival}, mix, bank)


def _tables_identical(a, b) -> bool:
    return all(
        getattr(a, col).dtype == getattr(b, col).dtype
        and np.array_equal(getattr(a, col), getattr(b, col))
        for col in a.COLUMNS
    )


class TestSeedStreams:
    """The satellite bugfix: per-(day, BS) spawned seed streams."""

    def test_serial_matches_parallel(self, tiny_generator):
        serial = tiny_generator.generate_campaign(2, 11, jobs=1)
        parallel = tiny_generator.generate_campaign(2, 11, jobs=2)
        assert _tables_identical(serial, parallel)

    def test_independent_of_arrival_dict_order(self, bank, tiny_generator):
        models = tiny_generator.arrival_models
        reordered = TrafficGenerator(
            dict(sorted(models.items(), reverse=True)),
            tiny_generator.mix,
            bank,
        )
        assert _tables_identical(
            tiny_generator.generate_campaign(2, 11),
            reordered.generate_campaign(2, 11),
        )

    def test_int_seed_is_deterministic(self, tiny_generator):
        assert _tables_identical(
            tiny_generator.generate_campaign(1, 5),
            tiny_generator.generate_campaign(1, 5),
        )

    def test_generator_seed_is_deterministic(self, tiny_generator):
        assert _tables_identical(
            tiny_generator.generate_campaign(1, np.random.default_rng(5)),
            tiny_generator.generate_campaign(1, np.random.default_rng(5)),
        )

    def test_unit_regenerates_its_campaign_slice(self, tiny_generator):
        campaign = tiny_generator.generate_campaign(2, 11)
        rng = unit_rng(11, 1, 3)
        day = tiny_generator.generate_bs_day(3, 1, rng)
        sliced = campaign.select((campaign.day == 1) & (campaign.bs_id == 3))
        assert _tables_identical(day.table, sliced)

    def test_executor_and_jobs_are_exclusive(self, tiny_generator):
        from repro.pipeline.executors import SerialExecutor

        with pytest.raises(GeneratorError):
            tiny_generator.generate_campaign(
                1, 5, executor=SerialExecutor(), jobs=2
            )


class TestChunking:
    def test_chunked_equals_unchunked(self, tiny_generator):
        whole = tiny_generator.generate_campaign(2, 11)
        chunks = tiny_generator.iter_campaign_chunks(2, 11, chunk_sessions=500)
        chunked = SessionTable.concatenate([chunk.table for chunk in chunks])
        assert _tables_identical(whole, chunked)

    def test_tiny_caller_arena_changes_nothing(self, tiny_generator):
        # Zero-copy views into one reused (and here repeatedly grown)
        # caller arena carry the same rows as the owning chunk tables.
        arena = SessionArena(capacity=8)
        owned = tiny_generator.iter_campaign_chunks(2, 11, chunk_sessions=500)
        viewed = tiny_generator.iter_campaign_chunks(
            2, 11, chunk_sessions=500, arena=arena
        )
        for a, b in zip(owned, viewed, strict=True):
            assert a.units == b.units
            assert _tables_identical(a.table, b.table)

    def test_chunks_cover_canonical_units_in_order(self, tiny_generator):
        chunks = list(
            tiny_generator.iter_campaign_chunks(2, 11, chunk_sessions=500)
        )
        units = [unit for chunk in chunks for unit in chunk.units]
        assert units == tiny_generator.campaign_units(2)
        assert [c.index for c in chunks] == list(range(len(chunks)))
        assert all(c.n_chunks == len(chunks) for c in chunks)

    def test_plan_respects_expected_budget(self, tiny_generator):
        per_unit = tiny_generator.expected_unit_sessions(0)
        budget = int(per_unit * 2.5)
        plan = tiny_generator.plan_chunks(3, budget)
        assert all(len(chunk) <= 2 for chunk in plan)
        assert sum(len(chunk) for chunk in plan) == 9

    def test_single_unit_over_budget_still_runs(self, tiny_generator):
        plan = tiny_generator.plan_chunks(1, 1)
        assert all(len(chunk) == 1 for chunk in plan)

    def test_invalid_chunk_budget_rejected(self, tiny_generator):
        with pytest.raises(GeneratorError):
            tiny_generator.plan_chunks(1, 0)


class TestSchema:
    """The satellite bugfix: exact dtypes and day-boundary truncation."""

    def test_generated_dtypes_match_session_table_schema(self, generator):
        table = generator.generate_bs_day(0, 0, np.random.default_rng(0)).table
        assert table.service_idx.dtype == np.int16
        assert table.bs_id.dtype == np.int32
        assert table.day.dtype == np.int16
        assert table.start_minute.dtype == np.int16
        assert table.duration_s.dtype == np.float32
        assert table.volume_mb.dtype == np.float32
        assert table.truncated.dtype == np.bool_

    def test_truncated_flags_day_boundary_sessions(self, generator):
        table = generator.generate_campaign(1, 13)
        crossing = (
            table.start_minute.astype(np.float64) * 60.0 + table.duration_s
            > 86400.0
        )
        assert np.array_equal(table.truncated, crossing)

    def test_boundary_crossing_sessions_are_marked(self, bank):
        # A duration model mapping every volume to ~10^6 s guarantees each
        # session crosses the day boundary.
        from repro.core.distributions import LogNormal10
        from repro.core.duration_model import PowerLawModel
        from repro.core.model_bank import ModelBank
        from repro.core.service_model import SessionLevelModel
        from repro.core.volume_model import VolumeModel

        long_bank = ModelBank()
        long_bank.add(
            SessionLevelModel(
                service="Facebook",
                volume=VolumeModel(main=LogNormal10(0.0, 0.1)),
                duration=PowerLawModel(alpha=1e-6, beta=1.0, r2=1.0),
            )
        )
        gen = TrafficGenerator(
            {0: ArrivalModel(2.0, 0.5, 0.4)},
            ServiceMix({"Facebook": 1.0}),
            long_bank,
        )
        table = gen.generate_campaign(1, 3)
        assert len(table) > 0
        assert bool(table.truncated.all())
        # The sampled duration itself is kept (distribution fidelity).
        assert float(table.duration_s.min()) > 86400.0


class TestDistributionFidelity:
    """The batched path must sample the same distributions as the old
    per-unit ``sample_mixed_sessions`` loop."""

    def test_service_draws_match_service_mix_exactly(self, generator):
        """Each session's service is the mix's inverse CDF at its uniform.

        Replays the unit stream in the engine's draw order — arrival
        counts, then one float32 uniform per session — and checks the
        production kernel against ``searchsorted`` over the mix CDF.
        """
        mix_cdf = generator.sampler().mix_cdf
        for seed in range(4):
            day = generator.generate_bs_day(0, 0, unit_rng(seed, 0, 0))
            rng = unit_rng(seed, 0, 0)
            generator.arrival_models[0].sample_day(rng)
            u = rng.random(len(day.table), dtype=np.float32)
            expected = mix_cdf.searchsorted(u.astype(np.float64), side="right")
            assert len(day.table) > 1000
            assert np.array_equal(day.table.service_idx, expected)

    def test_durations_follow_power_law_inverse(self, generator, bank):
        table = generator.generate_campaign(1, 17)
        for service in bank.services():
            sub = table.for_service(service)
            if not len(sub):
                continue
            model = bank.get(service)
            expected = np.maximum(
                model.duration.duration_for_volume_s(
                    sub.volume_mb.astype(np.float64)
                ),
                1.0,
            )
            np.testing.assert_allclose(
                sub.duration_s, expected, rtol=1e-3
            )

    def test_volume_distribution_matches_reference_path(self, generator):
        from repro.analysis.emd import emd
        from repro.analysis.histogram import LogHistogram

        batched = generator.generate_campaign(2, 23)
        reference = generate_campaign_reference(
            generator, 2, np.random.default_rng(23)
        )
        old = LogHistogram.from_volumes(
            reference.for_service("Facebook").volume_mb
        )
        new = LogHistogram.from_volumes(
            batched.for_service("Facebook").volume_mb
        )
        assert emd(old, new) < 0.1

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_any_seed_yields_schema_valid_reproducible_day(
        self, generator, seed
    ):
        first = generator.generate_bs_day(1, 0, unit_rng(seed, 0, 1))
        second = generator.generate_bs_day(1, 0, unit_rng(seed, 0, 1))
        assert _tables_identical(first.table, second.table)
        assert np.all(first.table.duration_s >= 1.0)
        assert np.all(first.table.volume_mb > 0)


class TestArenaStreaming:
    """Speed and memory of the arena-backed streamed path.

    The workload is one day of the perf-gate generator, streamed in
    ``DEFAULT_CHUNK_SESSIONS`` chunks through one reused arena.
    """

    #: Peak RSS of the same streamed pass before the arena engine landed.
    PRE_REFACTOR_PEAK_RSS_MB = 140.8

    #: Streamed sessions/s must be at least this multiple of the pinned
    #: per-unit reference loop's, both timed here on the same host.
    SPEEDUP_TARGET = 3.0

    def test_peak_rss_within_pre_refactor(self):
        assert child_peak_rss(ARENA_STREAM) <= self.PRE_REFACTOR_PEAK_RSS_MB

    def test_streams_faster_than_reference_loop(self, decile_generator):
        arena = SessionArena(capacity=int(DEFAULT_CHUNK_SESSIONS * 1.1))

        def streamed():
            sessions = 0
            for chunk in decile_generator.iter_campaign_chunks(
                1, 0, chunk_sessions=DEFAULT_CHUNK_SESSIONS, arena=arena
            ):
                sessions += len(chunk.table)
            return sessions

        def reference():
            return len(generate_campaign_reference(
                decile_generator, 1, np.random.default_rng(0)
            ))

        def best_rate(run, trials):
            """Sessions/s of the fastest of ``trials`` runs."""
            rates = []
            for _ in range(trials):
                start = time.perf_counter()
                sessions = run()
                rates.append(sessions / (time.perf_counter() - start))
            return max(rates)

        speedup = best_rate(streamed, 10) / best_rate(reference, 3)
        assert speedup >= self.SPEEDUP_TARGET
