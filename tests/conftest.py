"""Shared fixtures: one small measurement campaign reused across the suite.

The campaign is session-scoped because simulating it is the expensive part
of the suite; tests must not mutate it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings as hypothesis_settings

from repro.core.model_bank import ModelBank

# Property tests must be reproducible across runs: derandomize hypothesis
# so the suite's verdict never depends on the draw of the day.
hypothesis_settings.register_profile("deterministic", derandomize=True)
hypothesis_settings.load_profile("deterministic")
from repro.dataset.aggregation import aggregate_per_bs_day
from repro.dataset.network import Network, NetworkConfig
from repro.dataset.simulator import SimulationConfig, simulate

#: Days of the shared campaign: days 0 and 1, both working days under the
#: ``day % 7 in {5, 6}`` weekend convention, so it holds no weekend day.
CAMPAIGN_DAYS = 2

#: BSs of the perf-gate workload (one day at paper-decile peak rates).
GATE_N_BS = 40

ROOT = Path(__file__).resolve().parent.parent

#: Runs ``argv[1]`` in a child interpreter and exits with its status.
_LAUNCHER = (
    "import subprocess, sys; "
    "sys.exit(subprocess.run([sys.executable, '-c', sys.argv[1]]).returncode)"
)


def child_peak_rss(code: str) -> float:
    """Peak RSS in MiB of a fresh interpreter that runs ``code``.

    ``ru_maxrss`` is a monotone high-water mark, so this process's own
    figure covers every test run before.  It also survives ``exec``: a
    process forked from this one starts at this one's resident size.  So
    a small launcher interpreter forks the measured one, whose figure
    then covers ``code`` alone (its imports included).
    """
    script = (
        f"{code}\n"
        "from repro.pipeline.executors import peak_rss_mb\n"
        "print(peak_rss_mb())\n"
    )
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
    )
    done = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, script],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return float(done.stdout.split()[-1])


def reaped_pid() -> int:
    """The pid of a child process that has exited and been waited for."""
    child = subprocess.Popen([sys.executable, "-c", ""])
    child.wait()
    return child.pid


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    """Fresh deterministic generator per test session."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def network() -> Network:
    """A 20-BS network with all deciles, regions, cities and RATs."""
    return Network(NetworkConfig(n_bs=20), np.random.default_rng(1))


@pytest.fixture(scope="session")
def campaign(network):
    """A small two-day measurement campaign over the shared network."""
    return simulate(
        network,
        SimulationConfig(n_days=CAMPAIGN_DAYS),
        np.random.default_rng(2),
    )


@pytest.fixture(scope="session")
def campaign_stats(campaign):
    """Per-(service, BS, day) statistics of the shared campaign."""
    return aggregate_per_bs_day(campaign)


@pytest.fixture(scope="session")
def bank(campaign) -> ModelBank:
    """Session-level models fitted on the shared campaign."""
    return ModelBank.fit_from_table(campaign, min_sessions=400)


@pytest.fixture(scope="session")
def decile_generator():
    """The perf-gate generator: :data:`GATE_N_BS` BSs at decile rates.

    Built by the campaign benchmark's recipe, so the gates time the same
    generator the benchmark does.
    """
    from benchmarks.bench_campaign import build_generator

    return build_generator(GATE_N_BS, 1.0)
