"""Aggregate and read-mix recipes of the serve workload.

:func:`build_aggregate` is the campaign aggregate the repository
benchmark's ``serve-mixed`` workload (``perfbench/serve.py``) ingests,
and :func:`request_plan` its read mix: campaign listings, per-service
shares, volume/duration PDFs, fidelity verdicts and ``/metrics``
scrapes.  The benchmark checks every served body against a reference
store built from this aggregate, and compares runs across commits, so
neither recipe may change.
"""

import numpy as np

from repro.campaign.sketches import CampaignAggregate
from repro.core.arrivals import ArrivalModel
from repro.core.generator import TrafficGenerator
from repro.core.model_bank import ModelBank
from repro.core.service_mix import ServiceMix
from repro.dataset.network import Network, NetworkConfig
from repro.dataset.simulator import SimulationConfig, simulate

#: Root seed of the synthetic campaign every ingested entry derives from.
SEED = 0

#: HLL precision of the synthetic aggregate (small keeps ingest quick;
#: the served document sizes are what load the request path).
PRECISION = 12

#: Campaign footprint of the synthetic aggregate.
N_BS, DAYS = 12, 1


def build_aggregate() -> CampaignAggregate:
    """One deterministic campaign aggregate (same recipe as the tests)."""
    network = Network(NetworkConfig(n_bs=10), np.random.default_rng(101))
    campaign = simulate(
        network, SimulationConfig(n_days=2), np.random.default_rng(202)
    )
    bank = ModelBank.fit_from_table(campaign, min_sessions=500)
    mix = ServiceMix.from_measurements(campaign).restricted_to(
        bank.services()
    )
    arrival = ArrivalModel(peak_mu=2.0, peak_sigma=0.5, night_scale=0.4)
    generator = TrafficGenerator(
        {bs: arrival for bs in range(N_BS)}, mix, bank
    )
    table = generator.generate_campaign(DAYS, SEED)
    return CampaignAggregate.from_table(
        table, n_units=N_BS * DAYS, precision=PRECISION
    )


def request_plan(names: list[str], n_requests: int) -> list[tuple[str, str]]:
    """The (route, url-path) sequence one client issues.

    A fixed rotation over the endpoint mix, sweeping campaign names so
    successive requests hit different store rows; the workload is
    reproducible run to run.
    """
    routed = [
        ("/v1/campaigns", "/v1/campaigns?limit=25"),
        ("/v1/services/shares", "/v1/services/shares?campaign={name}"),
        ("/v1/pdf/volume", "/v1/pdf/volume?campaign={name}"),
        ("/v1/pdf/duration", "/v1/pdf/duration?campaign={name}"),
        ("/v1/fidelity", "/v1/fidelity?campaign={name}"),
        ("/metrics", "/metrics"),
    ]
    plan = []
    for index in range(n_requests):
        route, template = routed[index % len(routed)]
        name = names[index % len(names)]
        plan.append((route, template.format(name=name)))
    return plan
