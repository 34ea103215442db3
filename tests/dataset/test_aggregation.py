"""Tests for the per-(s, c, t) aggregation pipeline (Section 3.2)."""

import numpy as np
import pytest

from repro.dataset.aggregation import (
    DURATION_CENTERS,
    DURATION_EDGES,
    N_DURATION_BINS,
    AggregationError,
    DurationVolumeCurve,
    aggregate_per_bs_day,
    minute_arrival_counts,
    pooled_duration_volume,
    pooled_volume_pdf,
    service_shares,
    share_variability,
)
from repro.dataset.records import SessionTable


class TestDurationBins:
    def test_edges_cover_one_second_to_one_day(self):
        assert DURATION_EDGES[0] == 1.0
        assert DURATION_EDGES[-1] == 86400.0

    def test_centers_inside_edges(self):
        assert np.all(DURATION_CENTERS > DURATION_EDGES[:-1])
        assert np.all(DURATION_CENTERS < DURATION_EDGES[1:])


class TestDurationVolumeCurve:
    def test_observed_filters_empty_bins(self):
        means = np.zeros(N_DURATION_BINS)
        counts = np.zeros(N_DURATION_BINS)
        means[10], counts[10] = 5.0, 3.0
        curve = DurationVolumeCurve(means, counts)
        durations, volumes, weights = curve.observed()
        assert durations.size == 1
        assert volumes[0] == 5.0
        assert weights[0] == 3.0

    def test_throughput_conversion(self):
        means = np.zeros(N_DURATION_BINS)
        counts = np.zeros(N_DURATION_BINS)
        means[10], counts[10] = 5.0, 1.0
        curve = DurationVolumeCurve(means, counts)
        durations, thr = curve.throughput_mbps()
        assert thr[0] == pytest.approx(5.0 * 8.0 / durations[0])

    def test_wrong_shape_raises(self):
        with pytest.raises(AggregationError):
            DurationVolumeCurve(np.zeros(3), np.zeros(3))


class TestAggregatePerBsDay:
    def test_keys_are_unique(self, campaign_stats):
        keys = [(s.service, s.bs_id, s.day) for s in campaign_stats]
        assert len(keys) == len(set(keys))

    def test_session_counts_add_up(self, campaign, campaign_stats):
        assert sum(s.n_sessions for s in campaign_stats) == len(campaign)

    def test_volume_counts_match_n_sessions(self, campaign_stats):
        for entry in campaign_stats[:50]:
            assert entry.volume_counts.sum() == entry.n_sessions
            assert entry.dv_counts.sum() == entry.n_sessions
            assert entry.minute_counts.sum() == entry.n_sessions

    def test_volume_pdf_normalized(self, campaign_stats):
        pdf = campaign_stats[0].volume_pdf()
        assert pdf.total_mass == pytest.approx(1.0)

    def test_duration_volume_means_positive(self, campaign_stats):
        curve = campaign_stats[0].duration_volume()
        _, volumes, _ = curve.observed()
        assert np.all(volumes > 0)

    def test_empty_table_gives_no_stats(self):
        assert aggregate_per_bs_day(SessionTable.empty()) == []


class TestPooling:
    def test_pooled_pdf_equals_weighted_average(self, campaign, campaign_stats):
        """Pooling raw sessions implements Eq (2) exactly."""
        from repro.dataset.averaging import average_volume_pdf, filter_stats

        service = "Facebook"
        pooled = pooled_volume_pdf(campaign.for_service(service))
        averaged = average_volume_pdf(filter_stats(campaign_stats, service=service))
        assert np.allclose(pooled.density, averaged.density, atol=1e-9)
        assert pooled.total_mass == pytest.approx(1.0)

    def test_pooled_pdf_empty_table(self):
        assert pooled_volume_pdf(SessionTable.empty()).is_empty

    def test_pooled_curve_counts_total(self, campaign):
        sub = campaign.for_service("Netflix")
        curve = pooled_duration_volume(sub)
        assert curve.counts.sum() == len(sub)

    def test_pooled_curve_monotone_trend(self, campaign):
        # v(d) grows with duration for every service (Section 5.3).
        sub = campaign.for_service("Instagram")
        durations, volumes, counts = pooled_duration_volume(sub).observed()
        heavy = counts > 50
        log_d, log_v = np.log10(durations[heavy]), np.log10(volumes[heavy])
        slope = np.polyfit(log_d, log_v, 1)[0]
        assert slope > 0


class TestMinuteArrivalCounts:
    def test_total_matches_sessions(self, campaign, network):
        from tests.conftest import CAMPAIGN_DAYS

        bs_ids = [0, 1, 2]
        counts = minute_arrival_counts(campaign, bs_ids, CAMPAIGN_DAYS)
        assert counts.sum() == len(campaign.for_bs_ids(bs_ids))
        assert counts.size == len(bs_ids) * CAMPAIGN_DAYS * 1440

    def test_includes_zero_minutes(self, campaign):
        from tests.conftest import CAMPAIGN_DAYS

        counts = minute_arrival_counts(campaign, [0], CAMPAIGN_DAYS)
        assert (counts == 0).any()

    def test_empty_bs_list_raises(self, campaign):
        with pytest.raises(AggregationError):
            minute_arrival_counts(campaign, [], 1)


class TestShares:
    def test_service_shares_sum_to_one(self, campaign):
        shares = service_shares(campaign)
        assert sum(s for s, _ in shares.values()) == pytest.approx(1.0)
        assert sum(t for _, t in shares.values()) == pytest.approx(1.0)

    def test_shares_of_empty_table_raise(self):
        with pytest.raises(AggregationError):
            service_shares(SessionTable.empty())

    def test_share_variability_small_for_head_service(self, campaign):
        # Table 1: session-share CV is ~1 % for the dominant services.
        session_cv, traffic_cv = share_variability(campaign, "Facebook")
        assert session_cv < 0.1
        assert traffic_cv < 0.5

    def test_share_variability_unknown_service_raises(self, campaign):
        with pytest.raises(AggregationError):
            share_variability(campaign, "nope")


class TestCurveFromSessions:
    def test_matches_pooled_computation(self, campaign):
        sub = campaign.for_service("Deezer")
        direct = DurationVolumeCurve.from_sessions(
            sub.duration_s.astype(float), sub.volume_mb.astype(float)
        )
        pooled = pooled_duration_volume(sub)
        assert np.allclose(direct.mean_volume_mb, pooled.mean_volume_mb)
        assert np.allclose(direct.counts, pooled.counts)

    def test_empty_input(self):
        curve = DurationVolumeCurve.from_sessions(np.array([]), np.array([]))
        assert curve.counts.sum() == 0

    def test_misaligned_rejected(self):
        with pytest.raises(AggregationError):
            DurationVolumeCurve.from_sessions(np.ones(2), np.ones(3))

    def test_nonpositive_rejected(self):
        with pytest.raises(AggregationError):
            DurationVolumeCurve.from_sessions(
                np.array([0.0]), np.array([1.0])
            )
