"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper from a common
synthetic measurement campaign; results are printed and archived under
``benchmarks/output/`` so that the paper-vs-measured comparison in
EXPERIMENTS.md can be refreshed by re-running the suite.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.core.model_bank import ModelBank
from repro.dataset.network import Network, NetworkConfig
from repro.dataset.simulator import SimulationConfig, simulate

#: Scale of the benchmark campaign.  All statistics in the paper are per-BS
#: distributions, so 40 BSs x 7 days reproduce every shape; day indices 5-6
#: fall on the weekend so the day-type comparisons are exercised.
BENCH_N_BS = 40
BENCH_N_DAYS = 7

OUTPUT_DIR = Path(__file__).parent / "output"


@pytest.fixture(scope="session")
def bench_network() -> Network:
    """The benchmark BS population."""
    return Network(NetworkConfig(n_bs=BENCH_N_BS), np.random.default_rng(101))


@pytest.fixture(scope="session")
def bench_campaign(bench_network):
    """A seven-day campaign (5 working days + weekend) over 40 BSs."""
    return simulate(
        bench_network,
        SimulationConfig(n_days=BENCH_N_DAYS),
        np.random.default_rng(202),
    )


@pytest.fixture(scope="session")
def bench_bank(bench_campaign) -> ModelBank:
    """Session-level models fitted on the benchmark campaign."""
    return ModelBank.fit_from_table(bench_campaign, min_sessions=500)


@pytest.fixture(scope="session")
def emit():
    """Print a reproduction artefact and archive it under output/."""
    OUTPUT_DIR.mkdir(exist_ok=True)

    def _emit(name: str, text: str) -> None:
        print(f"\n=== {name} ===")
        print(text)
        (OUTPUT_DIR / f"{name}.txt").write_text(text + "\n")

    return _emit
