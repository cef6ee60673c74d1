"""Edge cases and failure injection across modules.

Deliberate misuse, degenerate workloads, and boundary parameters —
every branch here should fail loudly (typed exceptions) or degrade
gracefully (empty results), never corrupt state.
"""

import numpy as np
import pytest

from repro.core.greedy import GreedyButterflyScheme, GreedyHypercubeScheme
from repro.core.qnetwork import ExplicitLevelledSpec, HypercubeQSpec
from repro.errors import ConfigurationError, SimulationError
from repro.sim.feedforward import (
    EXIT,
    simulate_butterfly_greedy,
    simulate_hypercube_greedy,
    simulate_markovian,
)
from repro.sim.fixedpoint import simulate_paths_fixed_point
from repro.traffic.workload import TrafficSample


def _empty_sample(horizon=10.0):
    z = np.zeros(0, dtype=np.int64)
    return TrafficSample(np.zeros(0), z, z.copy(), horizon)


class TestEmptyWorkloads:
    def test_hypercube_empty(self, cube3):
        res = simulate_hypercube_greedy(cube3, _empty_sample())
        assert res.delivery.shape == (0,)
        assert res.hops.shape == (0,)

    def test_butterfly_empty(self, bf3):
        res = simulate_butterfly_greedy(bf3, _empty_sample())
        assert res.delivery.shape == (0,)

    def test_markovian_empty(self, cube3):
        spec = HypercubeQSpec(cube3, 0.5)
        res = simulate_markovian(spec, np.zeros(0), np.zeros(0, dtype=np.int64))
        assert res.exit_times.shape == (0,)

    def test_event_driven_empty(self):
        res = simulate_paths_fixed_point(4, np.zeros(0), [])
        assert res.delivery.shape == (0,)

    def test_empty_arc_log(self, cube3):
        res = simulate_hypercube_greedy(
            cube3, _empty_sample(), record_arc_log=True
        )
        assert res.arc_log.num_hops == 0


class TestSinglePacket:
    def test_single_zero_hop(self, cube3):
        s = TrafficSample(np.array([1.5]), np.array([3]), np.array([3]), 10.0)
        res = simulate_hypercube_greedy(cube3, s)
        assert res.delivery[0] == 1.5

    def test_single_max_distance(self, cube3):
        s = TrafficSample(np.array([0.0]), np.array([0]), np.array([7]), 10.0)
        res = simulate_hypercube_greedy(cube3, s, record_arc_log=True)
        assert res.delivery[0] == pytest.approx(3.0)
        # arc log shows contiguous occupation
        order = np.argsort(res.arc_log.t_in)
        np.testing.assert_allclose(
            res.arc_log.t_out[order][:-1], res.arc_log.t_in[order][1:]
        )


class TestDegenerateParameters:
    def test_d1_hypercube_works(self):
        scheme = GreedyHypercubeScheme(d=1, lam=0.8, p=0.5)
        t = scheme.measure_delay(300.0, rng=1)
        assert scheme.delay_lower_bound() * 0.9 <= t <= scheme.delay_upper_bound() * 1.1

    def test_d1_butterfly_works(self):
        scheme = GreedyButterflyScheme(d=1, lam=0.8, p=0.5)
        t = scheme.measure_delay(300.0, rng=2)
        assert t <= scheme.delay_upper_bound() * 1.1

    def test_p_one_scheme(self):
        scheme = GreedyHypercubeScheme(d=3, lam=0.5, p=1.0)
        res = scheme.run(100.0, rng=3)
        assert np.all(res.hops == 3)  # all antipodal

    def test_butterfly_p_zero(self):
        # p = 0: all straight arcs; vertical arcs idle
        scheme = GreedyButterflyScheme(d=3, lam=0.8, p=0.0)
        res = scheme.run(200.0, rng=4, record_arc_log=True)
        kinds = res.arc_log.arc % 2
        assert np.all(kinds == 0)

    def test_tiny_horizon(self):
        scheme = GreedyHypercubeScheme(d=3, lam=1.0, p=0.5)
        res = scheme.run(0.5, rng=5)  # likely a handful of packets
        assert np.all(res.delivery >= res.sample.times)


class TestMalformedInputs:
    def test_markovian_exit_everywhere_spec(self):
        # a spec whose decisions are always EXIT: single-hop network
        spec = ExplicitLevelledSpec(levels=[0, 0], routing={})
        times = np.array([0.0, 0.1])
        arcs = np.array([0, 1])
        res = simulate_markovian(spec, times, arcs)
        np.testing.assert_allclose(res.exit_times, times + 1.0)
        assert np.all(res.hops == 1)

    def test_event_driven_bad_arc_id(self):
        with pytest.raises(SimulationError):
            simulate_paths_fixed_point(2, np.array([0.0]), [[5]])

    def test_feedforward_wrong_sample_width(self, cube3):
        with pytest.raises(ConfigurationError):
            TrafficSample(np.array([0.0]), np.array([0, 1]), np.array([1]), 5.0)

    def test_qspec_wrong_arc_for_replay(self, cube3):
        spec = HypercubeQSpec(cube3, 0.5)
        times = np.array([0.0])
        arcs = np.array([0])
        with pytest.raises(SimulationError):
            simulate_markovian(spec, times, arcs, decisions={})

    def test_explicit_spec_exit_only_targets(self):
        spec = ExplicitLevelledSpec(
            levels=[0, 1], routing={0: ([EXIT, 1], [0.5, 0.5])}
        )
        gen = np.random.default_rng(0)
        dec = spec.draw_decisions(0, 1000, gen)
        assert set(np.unique(dec)) == {EXIT, 1}


class TestNumericalEdges:
    def test_identical_birth_times_mass(self, cube3):
        # 50 packets all born at t=0 from the same node to the same place
        n = 50
        s = TrafficSample(
            np.zeros(n),
            np.zeros(n, dtype=np.int64),
            np.full(n, 1, dtype=np.int64),
            10.0,
        )
        res = simulate_hypercube_greedy(cube3, s)
        # pure M/D/1 busy period: deliveries at 1, 2, ..., 50
        np.testing.assert_allclose(np.sort(res.delivery), np.arange(1, n + 1))

    def test_large_times_no_precision_loss(self, cube3):
        # birth times ~1e9: unit-service arithmetic must stay exact
        base = 1.0e9
        s = TrafficSample(
            np.array([base, base]),
            np.array([0, 0]),
            np.array([1, 1]),
            base + 10.0,
        )
        res = simulate_hypercube_greedy(cube3, s)
        np.testing.assert_allclose(np.sort(res.delivery), [base + 1.0, base + 2.0])

    def test_markovian_p_near_one(self, cube4):
        spec = HypercubeQSpec(cube4, 0.999)
        times, arcs = spec.sample_external_arrivals(0.3, 100.0, rng=6)
        res = simulate_markovian(spec, times, arcs, rng=7)
        # nearly every packet crosses all remaining dimensions
        assert res.hops.mean() > 3.5
