"""Sharded campaign driver: planning, byte-identity, empty shards, fidelity.

The load-bearing assertion everywhere is digest equality: the sharded
driver — serial, parallel, resumed, any shard size — must produce the
**byte-identical** merged aggregate of a single-pass aggregation over the
fully materialized campaign.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import repro.campaign.driver as driver
from repro.campaign import (
    CampaignAggregate,
    CampaignError,
    plan_shards,
    run_campaign,
)
from repro.campaign.fidelity import (
    AGGREGATE_CLAIMS,
    evaluate_aggregate,
    measure_aggregate,
)
from repro.core.arrivals import ArrivalModel
from repro.core.generator import BatchSampler, TrafficGenerator
from repro.core.service_mix import ServiceMix
from repro.io.cache import ArtifactCache
from repro.pipeline.executors import ParallelExecutor, SerialExecutor

from ..conftest import child_peak_rss

SEED = 11
DAYS = 2
N_BS = 6

#: HLL precision small enough that checkpoints stay tiny in tests.
P = 10


@pytest.fixture(scope="module")
def generator(bank):
    """A 6-BS generator with a moderate arrival rate."""
    arrival = ArrivalModel(peak_mu=2.0, peak_sigma=0.5, night_scale=0.4)
    mix = ServiceMix.from_table1().restricted_to(bank.services())
    return TrafficGenerator(
        {bs: arrival for bs in range(N_BS)}, mix, bank
    )


@pytest.fixture(scope="module")
def reference(generator):
    """Single-pass aggregate over the fully materialized campaign."""
    table = generator.generate_campaign(DAYS, SEED)
    return CampaignAggregate.from_table(
        table, n_units=N_BS * DAYS, precision=P
    )


class TestPlanShards:
    def test_day_major_ranges(self):
        shards = plan_shards([3, 1, 2], n_days=2, shard_bs=2)
        assert [s.index for s in shards] == [0, 1, 2, 3]
        assert [(s.day, s.bs_ids) for s in shards] == [
            (0, (1, 2)),
            (0, (3,)),
            (1, (1, 2)),
            (1, (3,)),
        ]

    def test_plan_independent_of_bs_order(self):
        assert plan_shards([5, 1, 9], 1, 2) == plan_shards([9, 5, 1], 1, 2)

    def test_units_carry_the_shard_day(self):
        (shard,) = plan_shards([4, 7], 1, 8)
        assert shard.units() == [(0, 4), (0, 7)]

    @pytest.mark.parametrize(
        "bs_ids, n_days, shard_bs",
        [([], 1, 1), ([1], 0, 1), ([1], 1, 0)],
    )
    def test_invalid_plans_rejected(self, bs_ids, n_days, shard_bs):
        with pytest.raises(CampaignError):
            plan_shards(bs_ids, n_days, shard_bs)


class TestByteIdentity:
    @pytest.mark.parametrize("shard_bs", [1, 2, 4, 100])
    def test_any_shard_size_matches_single_pass(
        self, generator, reference, shard_bs
    ):
        result = run_campaign(
            generator, DAYS, SEED, shard_bs=shard_bs, hll_precision=P
        )
        assert result.digest() == reference.digest()

    def test_parallel_matches_serial(self, generator, reference):
        with ParallelExecutor(jobs=2) as executor:
            result = run_campaign(
                generator,
                DAYS,
                SEED,
                shard_bs=2,
                executor=executor,
                hll_precision=P,
            )
        assert result.digest() == reference.digest()

    def test_chunk_budget_never_changes_the_aggregate(
        self, generator, reference
    ):
        tiny = run_campaign(
            generator,
            DAYS,
            SEED,
            shard_bs=3,
            chunk_sessions=200,
            hll_precision=P,
        )
        assert tiny.digest() == reference.digest()

    def test_resume_folds_checkpoints_byte_identically(
        self, generator, reference, tmp_path
    ):
        cache = ArtifactCache(tmp_path)
        first = run_campaign(
            generator, DAYS, SEED, shard_bs=2, cache=cache, hll_precision=P
        )
        again = run_campaign(
            generator, DAYS, SEED, shard_bs=2, cache=cache, hll_precision=P
        )
        assert first.computed_shards == first.n_shards
        assert again.resumed_shards == again.n_shards
        assert again.computed_shards == 0
        assert first.digest() == again.digest() == reference.digest()

    def test_no_resume_recomputes_everything(
        self, generator, reference, tmp_path
    ):
        cache = ArtifactCache(tmp_path)
        run_campaign(
            generator, DAYS, SEED, shard_bs=2, cache=cache, hll_precision=P
        )
        fresh = run_campaign(
            generator,
            DAYS,
            SEED,
            shard_bs=2,
            cache=cache,
            resume=False,
            hll_precision=P,
        )
        assert fresh.computed_shards == fresh.n_shards
        assert fresh.digest() == reference.digest()

    def test_invalid_chunk_budget_rejected(self, generator):
        with pytest.raises(CampaignError):
            run_campaign(generator, DAYS, SEED, chunk_sessions=0)


#: File the counting wrappers below append to, set per test; forked
#: executor workers inherit it, so their calls count too.
CALL_LOG: dict[str, Path] = {}

_REAL_FROM_MODELS = BatchSampler.from_models.__func__
_REAL_RUN_SHARD = driver._run_shard


def _log_call(name: str) -> None:
    with open(CALL_LOG["path"], "a", encoding="utf-8") as log:
        log.write(name + "\n")


def _counting_from_models(cls, mix, bank):
    _log_call("from_models")
    return _REAL_FROM_MODELS(cls, mix, bank)


def _counting_run_shard(item):
    _log_call("shard")
    return _REAL_RUN_SHARD(item)


class TestOneSamplerPerRun:
    """The run flattens its models once; shards carry the built sampler."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_sampler_built_at_most_once(
        self, bank, monkeypatch, tmp_path, jobs
    ):
        log = tmp_path / "calls.log"
        log.touch()
        monkeypatch.setitem(CALL_LOG, "path", log)
        monkeypatch.setattr(
            BatchSampler, "from_models", classmethod(_counting_from_models)
        )
        monkeypatch.setattr(driver, "_run_shard", _counting_run_shard)
        arrival = ArrivalModel(peak_mu=0.5, peak_sigma=0.05, night_scale=0.1)
        mix = ServiceMix.from_table1().restricted_to(bank.services())
        fresh = TrafficGenerator(
            {bs: arrival for bs in range(12)}, mix, bank
        )
        executor = SerialExecutor() if jobs == 1 else ParallelExecutor(jobs)
        with executor:
            result = run_campaign(
                fresh, 2, SEED, shard_bs=2, executor=executor,
                hll_precision=P,
            )
        calls = log.read_text(encoding="utf-8").split()
        assert result.n_shards == 12
        assert calls.count("shard") == 12  # the wrappers reached the workers
        assert calls.count("from_models") <= 1


class TestBoundedMemory:
    """Peak RSS is bounded by the shard/chunk budget, not campaign size."""

    #: Peak RSS at 8x the BSs must stay within this factor of the base's.
    RSS_FLAT_TOLERANCE = 1.25

    #: One day at paper-decile rates and the default shard size, run by
    #: :func:`child_peak_rss` in a fresh interpreter per BS count.  At
    #: 160 BSs the campaign's sessions take about 40 MiB, so holding them
    #: would breach the tolerance over the ~105 MiB of imports and models.
    CAMPAIGN = """
from benchmarks.bench_campaign import build_generator
from repro.campaign import run_campaign
run_campaign(build_generator({n_bs}, 1.0), 1, 0)
"""

    def test_peak_rss_flat_across_8x_bs_count(self):
        base, grown = (
            child_peak_rss(self.CAMPAIGN.format(n_bs=n_bs))
            for n_bs in (20, 160)
        )
        assert max(base, grown) <= self.RSS_FLAT_TOLERANCE * min(base, grown)


class TestEmptyShards:
    """(day, BS) units sampling zero sessions stay identity elements."""

    @pytest.fixture(scope="class")
    def sparse_generator(self, bank):
        """One active BS amid BSs whose arrival rates round to zero."""
        active = ArrivalModel(peak_mu=2.0, peak_sigma=0.5, night_scale=0.4)
        silent = ArrivalModel(
            peak_mu=1e-4, peak_sigma=1e-5, night_scale=1e-4
        )
        mix = ServiceMix.from_table1().restricted_to(bank.services())
        return TrafficGenerator(
            {0: silent, 1: active, 2: silent, 3: silent}, mix, bank
        )

    def test_empty_shards_round_trip_through_the_driver(
        self, sparse_generator, tmp_path
    ):
        cache = ArtifactCache(tmp_path)
        result = run_campaign(
            sparse_generator,
            1,
            SEED,
            shard_bs=1,  # shards of the silent BSs are entirely empty
            cache=cache,
            hll_precision=P,
        )
        assert result.n_shards == 4
        assert result.aggregate.n_units == 4
        assert result.aggregate.n_sessions > 0
        resumed = run_campaign(
            sparse_generator, 1, SEED, shard_bs=1, cache=cache, hll_precision=P
        )
        assert resumed.resumed_shards == 4
        assert resumed.digest() == result.digest()

    def test_empty_shards_equal_identity_merges(self, sparse_generator):
        sharded = run_campaign(
            sparse_generator, 1, SEED, shard_bs=1, hll_precision=P
        )
        whole = run_campaign(
            sparse_generator, 1, SEED, shard_bs=100, hll_precision=P
        )
        assert sharded.digest() == whole.digest()


class TestAggregateFidelity:
    def test_measures_match_table_measurements(self, generator, reference):
        from repro.verify.checks import measure_circadian, measure_ranking

        table = generator.generate_campaign(DAYS, SEED)
        via_table = {**measure_ranking(table), **measure_circadian(table)}
        via_aggregate = measure_aggregate(reference)
        assert set(via_aggregate) == set(AGGREGATE_CLAIMS)
        for claim in AGGREGATE_CLAIMS:
            assert via_aggregate[claim] == via_table[claim], claim

    def test_evaluate_aggregate_judges_subset_under_real_bands(
        self, reference
    ):
        from repro.verify import Baseline, default_baseline_path

        baseline = Baseline.load(default_baseline_path())
        report = evaluate_aggregate(reference, baseline)
        assert sorted(report.claims()) == sorted(AGGREGATE_CLAIMS)
        for claim in AGGREGATE_CLAIMS:
            band = baseline.claims[claim]
            assert (report.result(claim).lo, report.result(claim).hi) == (
                band.lo,
                band.hi,
            )

    def test_empty_campaign_cannot_be_measured(self):
        from repro.verify.checks import CheckError

        with pytest.raises(CheckError, match="empty"):
            measure_aggregate(CampaignAggregate.empty(precision=P))

    def test_empty_campaign_evaluates_to_skipped_verdict(self):
        from repro.verify import Baseline, default_baseline_path

        baseline = Baseline.load(default_baseline_path())
        report = evaluate_aggregate(
            CampaignAggregate.empty(precision=P), baseline
        )
        assert report.ok  # skipped checks never fail the gate
        assert report.summary()["verdict"] == "SKIPPED"
        assert sorted(report.claims()) == sorted(AGGREGATE_CLAIMS)
        for claim in AGGREGATE_CLAIMS:
            result = report.result(claim)
            band = baseline.claims[claim]
            assert result.skipped
            assert result.passed
            assert (result.lo, result.hi) == (band.lo, band.hi)

    def test_empty_campaign_skipped_report_is_deterministic(self):
        from repro.verify import Baseline, default_baseline_path

        baseline = Baseline.load(default_baseline_path())
        first = evaluate_aggregate(
            CampaignAggregate.empty(precision=P), baseline
        )
        second = evaluate_aggregate(
            CampaignAggregate.empty(precision=P), baseline
        )
        assert first.to_dict() == second.to_dict()

    def test_unknown_claim_subset_rejected(self, reference):
        from repro.verify import Baseline, default_baseline_path
        from repro.verify.checks import CheckError, evaluate

        baseline = Baseline.load(default_baseline_path())
        with pytest.raises(CheckError, match="not in the baseline"):
            evaluate(
                measure_aggregate(reference),
                baseline,
                claims=["no-such-claim"],
            )


class TestTraceProvenance:
    """Trace ids flow seed -> driver -> checkpoints without touching bytes."""

    def test_trace_id_is_a_pure_function_of_the_root_seed(self, generator):
        from repro.pipeline.context import mint_trace_id

        result = run_campaign(generator, DAYS, SEED, hll_precision=P)
        assert result.trace_id == mint_trace_id(SEED)
        assert result.provenance() == {"trace_id": result.trace_id}
        assert result.summary()["trace_id"] == result.trace_id

    def test_telemetry_and_progress_never_change_the_digest(
        self, generator, reference, tmp_path
    ):
        from repro.obs.progress import load_progress
        from repro.obs.telemetry import Telemetry

        plain = run_campaign(generator, DAYS, SEED, hll_precision=P)
        telemetry = Telemetry(directory=tmp_path, verbosity=0)
        observed = run_campaign(
            generator, DAYS, SEED, telemetry=telemetry, hll_precision=P
        )
        telemetry.finalize(command="campaign")
        assert observed.digest() == plain.digest() == reference.digest()
        assert (
            observed.aggregate.canonical_json()
            == plain.aggregate.canonical_json()
        )
        progress = load_progress(tmp_path)
        assert progress["shards"]["done"] == progress["shards"]["total"]
        assert progress["trace_id"] == observed.trace_id

    def test_checkpoints_ride_the_provenance_envelope(
        self, generator, tmp_path
    ):
        import json

        from repro.campaign.driver import CHECKPOINT_KIND, CHECKPOINT_SUFFIX

        result = run_campaign(
            generator,
            DAYS,
            SEED,
            shard_bs=2,
            cache=ArtifactCache(tmp_path),
            hll_precision=P,
        )
        paths = sorted((tmp_path / CHECKPOINT_KIND).glob(f"*{CHECKPOINT_SUFFIX}"))
        assert len(paths) == result.n_shards
        for path in paths:
            payload = json.loads(path.read_text(encoding="utf-8"))
            assert payload["provenance"] == {"trace_id": result.trace_id}
            # The envelope is ignored by the canonical deserializer.
            CampaignAggregate.from_dict(payload)
