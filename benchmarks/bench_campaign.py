"""Generator recipe of the campaign workloads.

:func:`build_generator` is the one generator the repository benchmark's
campaign workloads (``perfbench/campaign.py``, pinned by
``perfbench/pins.json``) and the memory and throughput tests build.  Its
digests are pinned, so the recipe must not change.
"""

import numpy as np

from repro.core.arrivals import ArrivalModel
from repro.core.generator import TrafficGenerator
from repro.core.model_bank import ModelBank
from repro.core.service_mix import ServiceMix
from repro.dataset.network import Network, NetworkConfig, decile_peak_rate
from repro.dataset.simulator import SimulationConfig, simulate


def build_generator(n_bs: int, rate_scale: float) -> TrafficGenerator:
    """A generator with models fitted on a small simulated campaign.

    Arrival intensities sweep the paper's BS deciles (scaled by
    ``rate_scale``) so the workload mixes quiet and busy cells, as a real
    deployment snapshot would.
    """
    network = Network(NetworkConfig(n_bs=20), np.random.default_rng(101))
    campaign = simulate(
        network, SimulationConfig(n_days=2), np.random.default_rng(202)
    )
    bank = ModelBank.fit_from_table(campaign, min_sessions=500)
    mix = ServiceMix.from_measurements(campaign).restricted_to(
        bank.services()
    )
    arrivals = {}
    for bs_id in range(n_bs):
        peak = decile_peak_rate(1 + (bs_id % 9)) * rate_scale
        arrivals[bs_id] = ArrivalModel(peak, peak / 10.0, peak / 8.0)
    return TrafficGenerator(arrivals, mix, bank)
