"""Seed determinism of every stochastic entry point.

Reproducibility is a core promise of the library ("implicitly enable
verifiability and reproducibility of results", Section 1): equal seeds
must give byte-equal outputs, different seeds different ones, and no
component may touch global random state.
"""

import numpy as np

from repro.core.model_bank import ModelBank
from repro.core.service_mix import ServiceMix
from repro.dataset.network import Network, NetworkConfig
from repro.dataset.simulator import SimulationConfig, simulate
from repro.usecases.vran.sources import generate_skeleton
from repro.usecases.vran.topology import VranTopology


def twin_rngs(seed=7):
    return np.random.default_rng(seed), np.random.default_rng(seed)


class TestSeedDeterminism:
    def test_network_construction(self):
        a = Network(NetworkConfig(n_bs=30), np.random.default_rng(1))
        b = Network(NetworkConfig(n_bs=30), np.random.default_rng(1))
        for sa, sb in zip(a, b):
            assert sa == sb

    def test_simulation(self, network):
        rng_a, rng_b = twin_rngs()
        config = SimulationConfig(n_days=1)
        ta = simulate(network, config, rng_a)
        tb = simulate(network, config, rng_b)
        assert np.array_equal(ta.volume_mb, tb.volume_mb)
        assert np.array_equal(ta.service_idx, tb.service_idx)

    def test_simulation_seed_sensitivity(self, network):
        config = SimulationConfig(n_days=1)
        ta = simulate(network, config, np.random.default_rng(1))
        tb = simulate(network, config, np.random.default_rng(2))
        assert len(ta) != len(tb) or not np.array_equal(
            ta.volume_mb, tb.volume_mb
        )

    def test_model_sampling(self, bank):
        rng_a, rng_b = twin_rngs()
        model = bank.get("Netflix")
        a = model.sample_sessions(rng_a, 500)
        b = model.sample_sessions(rng_b, 500)
        assert np.array_equal(a.volumes_mb, b.volumes_mb)

    def test_bank_fit_is_deterministic(self, campaign):
        bank_a = ModelBank.fit_from_table(campaign, services=["Deezer"])
        bank_b = ModelBank.fit_from_table(campaign, services=["Deezer"])
        assert bank_a.to_json() == bank_b.to_json()

    def test_skeleton_generation(self, campaign, bank):
        mix = ServiceMix.from_measurements(campaign).restricted_to(
            bank.services()
        )
        rng_a, rng_b = twin_rngs()
        topo = VranTopology(n_es=2, n_ru_per_es=2)
        sk_a = generate_skeleton(topo, mix, rng_a, 300.0)
        sk_b = generate_skeleton(topo, mix, rng_b, 300.0)
        assert np.array_equal(sk_a.t_start_s, sk_b.t_start_s)
        assert np.array_equal(sk_a.service_idx, sk_b.service_idx)

    def test_no_global_random_state_usage(self, network):
        # Identical explicit generators must be unaffected by reseeding the
        # legacy global state in between.
        config = SimulationConfig(n_days=1)
        np.random.seed(0)
        ta = simulate(network, config, np.random.default_rng(5))
        np.random.seed(12345)
        tb = simulate(network, config, np.random.default_rng(5))
        assert np.array_equal(ta.volume_mb, tb.volume_mb)

    def test_simulation_int_seed(self, network):
        # An explicit integer root seed is a first-class entry point (the
        # CLI uses it so cache keys stay stable).
        config = SimulationConfig(n_days=1)
        ta = simulate(network, config, 7)
        tb = simulate(network, config, 7)
        assert np.array_equal(ta.volume_mb, tb.volume_mb)
        assert np.array_equal(ta.bs_id, tb.bs_id)

    def test_use_case_experiment_determinism(self, campaign):
        from repro.usecases.vran import VranScenario, VranTopology as VT
        from repro.usecases.vran import run_vran_experiment

        scenario = VranScenario(
            topology=VT(n_es=1, n_ru_per_es=2), horizon_s=120.0, warmup_s=30.0
        )
        out_a = run_vran_experiment(
            campaign, np.random.default_rng(3), scenario, strategies=("model",)
        )
        out_b = run_vran_experiment(
            campaign, np.random.default_rng(3), scenario, strategies=("model",)
        )
        assert np.array_equal(
            out_a.traces["model"].power_w, out_b.traces["model"].power_w
        )


class TestOrderIndependence:
    """Campaign output must not depend on unit order or worker count.

    Each (day, BS) work unit draws from its own spawned seed stream, so
    running units in any order — or across any number of processes — must
    reassemble into the exact same campaign table.
    """

    def test_permuted_unit_order(self, network):
        from repro.dataset.simulator import (
            campaign_units,
            decile_peer_map,
            simulate_bs_day,
            unit_seed,
        )

        config = SimulationConfig(n_days=2)
        root_seed = 7
        reference = simulate(network, config, root_seed)

        units = campaign_units(network, config)
        peers = decile_peer_map(network)
        shuffled = list(units)
        np.random.default_rng(99).shuffle(shuffled)
        pieces = {}
        for day, bs_id in shuffled:
            station = network.station(bs_id)
            rng = np.random.default_rng(unit_seed(root_seed, day, bs_id))
            pieces[(day, bs_id)] = simulate_bs_day(
                station, day, config, peers[station.decile], rng
            )
        # Reassemble in canonical order: identical to the one-shot run.
        from repro.dataset.records import SessionTable

        reassembled = SessionTable.concatenate(
            [pieces[unit] for unit in units]
        )
        assert len(reassembled) == len(reference)
        assert np.array_equal(reassembled.volume_mb, reference.volume_mb)
        assert np.array_equal(reassembled.bs_id, reference.bs_id)
        assert np.array_equal(reassembled.service_idx, reference.service_idx)

    def test_serial_vs_parallel_simulation(self, network):
        from repro.pipeline import make_executor

        config = SimulationConfig(n_days=1)
        serial = simulate(network, config, 7)
        with make_executor(2) as executor:
            parallel = simulate(network, config, 7, executor=executor)
        assert len(serial) == len(parallel)
        assert np.array_equal(serial.volume_mb, parallel.volume_mb)
        assert np.array_equal(serial.duration_s, parallel.duration_s)
        assert np.array_equal(serial.bs_id, parallel.bs_id)

    def test_serial_vs_parallel_streaming(self, network):
        from repro.dataset.streaming import simulate_aggregated
        from repro.pipeline import make_executor

        config = SimulationConfig(n_days=1)
        serial = simulate_aggregated(network, config, 7)
        with make_executor(2) as executor:
            parallel = simulate_aggregated(network, config, 7, executor=executor)
        assert serial.n_sessions == parallel.n_sessions
        assert np.array_equal(serial._traffic_mb, parallel._traffic_mb)

    def test_parallel_fit_matches_serial(self, campaign):
        from repro.pipeline import make_executor

        serial = ModelBank.fit_from_table(campaign, services=["Facebook"])
        with make_executor(2) as executor:
            parallel = ModelBank.fit_from_table(
                campaign, services=["Facebook"], executor=executor
            )
        assert serial.to_json() == parallel.to_json()
