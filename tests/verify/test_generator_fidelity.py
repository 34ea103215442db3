"""Fidelity gate over the batched synthesis engine (``pytest -m fidelity``).

The statistical gate of :mod:`repro.verify` judges campaigns produced by
the *measurement* simulator; these tests close the loop on the *generator*:
a campaign produced by the batched seed-stream engine from fitted models
must carry the same headline statistics the models were fitted to —
service mix shares, per-service volume distributions, power-law
duration–volume coupling, and arrival intensities.
"""

import numpy as np
import pytest

from repro.analysis.emd import emd
from repro.analysis.histogram import LogHistogram
from repro.core.arrivals import fit_decile_arrival_models
from repro.core.generator import TrafficGenerator
from repro.core.service_mix import ServiceMix
from repro.dataset.circadian import peak_minute_mask
from repro.dataset.records import SERVICE_NAMES
from tests.conftest import CAMPAIGN_DAYS

pytestmark = pytest.mark.fidelity

#: Days generated by the gated campaign.
GENERATED_DAYS = 2

#: BSs generated by the gated campaign (all on the fitted decile model).
GENERATED_BS = 8


@pytest.fixture(scope="module")
def generated(campaign, network, bank):
    """A batched-path campaign from models fitted on the shared campaign."""
    fitted = fit_decile_arrival_models(campaign, network, CAMPAIGN_DAYS)
    arrival = fitted[5]
    mix = ServiceMix.from_table1().restricted_to(bank.services())
    generator = TrafficGenerator(
        {bs: arrival for bs in range(GENERATED_BS)}, mix, bank
    )
    table = generator.generate_campaign(GENERATED_DAYS, 0)
    return generator, arrival, table


class TestGeneratedCampaignFidelity:
    def test_covers_requested_scale(self, generated):
        _, _, table = generated
        assert set(np.unique(table.bs_id)) == set(range(GENERATED_BS))
        assert set(np.unique(table.day)) == set(range(GENERATED_DAYS))

    def test_service_shares_recover_requested_mix(self, generated):
        generator, _, table = generated
        probs = generator.mix.probabilities()
        for idx, expected in enumerate(probs):
            if expected < 0.02:
                continue
            share = float((table.service_idx == idx).mean())
            assert share == pytest.approx(expected, abs=0.02), (
                SERVICE_NAMES[idx]
            )

    def test_volume_distributions_recover_fitted_models(
        self, generated, bank
    ):
        _, _, table = generated
        checked = 0
        for service in bank.services():
            sub = table.for_service(service)
            if len(sub) < 2000:
                continue
            measured = LogHistogram.from_volumes(sub.volume_mb)
            fitted = bank.get(service).volume.as_histogram()
            assert emd(measured, fitted) < 0.25, service
            checked += 1
        assert checked >= 3

    def test_durations_recover_power_law(self, generated, bank):
        _, _, table = generated
        for service in bank.services()[:5]:
            sub = table.for_service(service)
            mask = ~sub.truncated & (sub.duration_s > 1.0)
            if mask.sum() < 1000:
                continue
            model = bank.get(service).duration
            expected = model.duration_for_volume_s(
                sub.volume_mb[mask].astype(np.float64)
            )
            np.testing.assert_allclose(
                sub.duration_s[mask], expected, rtol=1e-3
            )

    def test_peak_arrival_rate_recovers_fitted_intensity(self, generated):
        _, arrival, table = generated
        counts = np.zeros(1440)
        np.add.at(counts, table.start_minute, 1.0)
        per_unit = counts / (GENERATED_BS * GENERATED_DAYS)
        peak_rate = float(per_unit[peak_minute_mask()].mean())
        assert peak_rate == pytest.approx(arrival.peak_mu, rel=0.15)

    def test_truncation_marks_exactly_day_boundary_crossings(self, generated):
        _, _, table = generated
        crossing = (
            table.start_minute.astype(np.float64) * 60.0 + table.duration_s
            > 86400.0
        )
        assert np.array_equal(table.truncated, crossing)
