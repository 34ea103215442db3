"""Tests for the model-driven traffic generator."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.arrivals import ArrivalModel, arrival_counts
from repro.core.generator import (
    DEFAULT_CHUNK_SESSIONS,
    GeneratorError,
    TrafficGenerator,
    generate_campaign_reference,
    unit_rng,
    unit_seed,
    unit_states,
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


class TestBulkSeeding:
    """``unit_states`` is the bulk form of ``SFC64(unit_seed(...))``.

    The engine never builds a ``SeedSequence`` per unit: it replays
    NumPy's seed hashing vectorized over BS ids.  Equality with the
    reference is what keeps campaigns bit-identical, so a NumPy change to
    ``SeedSequence`` or SFC64 seeding fails here, not in moved digests.
    """

    EDGE_ROOTS = (0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64, 2**130)
    EDGE_DAYS = (0, 1, 2**15 - 1)
    EDGE_BS = (0, 1, 8, 9, 10, 11, 2**31 - 1)

    @staticmethod
    def reference(root_seed: int, day: int, bs_id: int) -> np.ndarray:
        bitgen = np.random.SFC64(unit_seed(root_seed, day, bs_id))
        return bitgen.state["state"]["state"]

    def assert_matches(self, root_seed, day, bs_ids) -> None:
        states = unit_states(root_seed, day, bs_ids)
        assert states.shape == (len(bs_ids), 4)
        assert states.dtype == np.uint64
        for row, bs_id in zip(states, bs_ids):
            assert np.array_equal(
                row, self.reference(root_seed, day, int(bs_id))
            ), (root_seed, day, bs_id)

    def test_matches_unit_seed_on_random_keys(self):
        rng = np.random.default_rng(20)
        checked = 0
        for _ in range(40):
            root_seed = int(rng.integers(0, 2**63)) >> int(rng.integers(0, 63))
            day = int(rng.integers(0, 2**15))
            bs_ids = rng.integers(0, 2**31, 32)
            self.assert_matches(root_seed, day, bs_ids)
            checked += len(bs_ids)
        assert checked >= 1000

    def test_matches_unit_seed_on_edge_keys(self):
        for root_seed in self.EDGE_ROOTS:
            for day in self.EDGE_DAYS:
                self.assert_matches(root_seed, day, self.EDGE_BS)

    def test_empty_block(self):
        assert unit_states(3, 0, []).shape == (0, 4)

    @pytest.mark.parametrize("bs_id", [-1, 2**32])
    def test_bs_id_must_fit_one_word(self, bs_id):
        with pytest.raises(GeneratorError):
            unit_states(3, 0, [0, bs_id])


class TestBlockArrivals:
    """A block's arrival counts equal per-unit ``sample_day`` draws."""

    #: Models exercising the transform's edges: Gaussian draws far below
    #: zero (clipped), a heavy Pareto night (shape near 1, so the odd
    #: minute draws hundreds of sessions off a 0.05 scale), and a unit so
    #: quiet that it almost always draws no session at all.
    MODELS = {
        "clipped": ArrivalModel(peak_mu=0.3, peak_sigma=1.0, night_scale=0.2),
        "tail": ArrivalModel(
            peak_mu=0.2, peak_sigma=0.02, night_scale=0.05, night_shape=1.1
        ),
        "silent": ArrivalModel(
            peak_mu=1e-3, peak_sigma=1e-4, night_scale=1e-4
        ),
        "plain": ArrivalModel(peak_mu=2.0, peak_sigma=0.2, night_scale=0.3),
    }

    @staticmethod
    def distribution_draws(model, rng) -> np.ndarray:
        """The arrival counts drawn through the distributions themselves."""
        mask = peak_minute_mask()
        counts = np.empty(mask.size)
        counts[mask] = model.peak.sample(rng, int(mask.sum()))
        counts[~mask] = model.night.sample(rng, int((~mask).sum()))
        np.rint(counts, out=counts)
        np.maximum(counts, 0.0, out=counts)
        return counts.astype(np.int64)

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_sample_day_equals_distribution_draws(self, name):
        model = self.MODELS[name]
        for seed in range(50):
            assert np.array_equal(
                model.sample_day(unit_rng(seed, 0, 0)),
                self.distribution_draws(model, unit_rng(seed, 0, 0)),
            )

    def test_extreme_draws_match_the_distributions(self):
        """Counts at the float limits of the draws, against the scalar
        Gaussian affine map and ``Pareto.ppf`` row by row."""
        z = np.array([-1e3, -40.0, -0.5, 0.0, 0.4999, 40.0])
        q = np.array([0.0, 0.5, 1 - 2.0**-20, 1 - 2.0**-40, 1 - 2.0**-53])
        models = [
            ArrivalModel(peak_mu=0.3, peak_sigma=1.0, night_scale=1e-4),
            ArrivalModel(
                peak_mu=50.0, peak_sigma=5.0, night_scale=1e3, night_shape=1.2
            ),
            ArrivalModel(peak_mu=1e-3, peak_sigma=1e-4, night_scale=1e-4),
        ]
        mask = peak_minute_mask()
        n_peak, n_night = int(mask.sum()), int((~mask).sum())
        peak_z = np.resize(z, (len(models), n_peak))
        night_q = np.resize(q, (len(models), n_night))
        counts = arrival_counts(models, peak_z, night_q, mask)
        for row, model, zs, qs in zip(counts, models, peak_z, night_q):
            expected = np.empty(mask.size)
            expected[mask] = model.peak_mu + model.peak_sigma * zs
            expected[~mask] = model.night.ppf(qs)
            expected = np.maximum(np.rint(expected), 0.0).astype(np.int64)
            assert np.array_equal(row, expected)
        assert counts.max() > 2**40  # the Pareto tail at q = 1 - 2**-53

    def test_block_spanning_two_days_equals_per_unit_days(self, bank):
        names = sorted(self.MODELS)
        models = {bs: self.MODELS[names[bs % len(names)]] for bs in range(24)}
        mix = ServiceMix.from_table1().restricted_to(bank.services())
        generator = TrafficGenerator(models, mix, bank)
        # Day 0's last twelve BSs, then all of day 1: the blocks straddle
        # the day boundary and mix every edge model.
        units = [(0, bs) for bs in range(12, 24)] + [
            (1, bs) for bs in range(24)
        ]
        block = generator.generate_units(
            units, 29, arena=SessionArena(capacity=1024)
        )
        per_unit = [
            generator.generate_bs_day(bs, day, unit_rng(29, day, bs))
            for day, bs in units
        ]
        assert _tables_identical(
            block, SessionTable.concatenate([d.table for d in per_unit])
        )
        busiest = {
            name: [
                int(d.minute_counts.max())
                for (day, bs), d in zip(units, per_unit)
                if names[bs % len(names)] == name
            ]
            for name in names
        }
        assert 0 in busiest["silent"]
        assert max(busiest["tail"]) > 100


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
