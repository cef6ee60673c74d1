"""Tests for the scheme objects (greedy hypercube/butterfly, slotted)."""

import numpy as np
import pytest

from repro.core.greedy import GreedyButterflyScheme, GreedyHypercubeScheme
from repro.errors import ConfigurationError
from repro.sim.slotted import SlottedGreedyHypercube


class TestGreedyHypercubeScheme:
    def test_theory_properties(self):
        s = GreedyHypercubeScheme(d=6, lam=1.6, p=0.5)
        assert s.rho == pytest.approx(0.8)
        assert s.stable
        assert s.zero_contention_delay() == pytest.approx(3.0)
        assert s.delay_upper_bound() == pytest.approx(15.0)
        assert s.delay_lower_bound() < s.delay_upper_bound()

    def test_unstable_flag(self):
        s = GreedyHypercubeScheme(d=4, lam=2.5, p=0.5)
        assert not s.stable

    def test_run_is_reproducible(self):
        s = GreedyHypercubeScheme(d=4, lam=1.0, p=0.5)
        a = s.run(60.0, rng=5)
        b = s.run(60.0, rng=5)
        np.testing.assert_array_equal(a.delivery, b.delivery)

    def test_measured_delay_within_bounds(self):
        s = GreedyHypercubeScheme(d=5, lam=1.4, p=0.5)  # rho=0.7
        t = s.measure_delay(horizon=600.0, rng=7)
        assert s.delay_lower_bound() * 0.95 <= t <= s.delay_upper_bound() * 1.05

    def test_q_spec_consistent(self):
        s = GreedyHypercubeScheme(d=4, lam=1.0, p=0.3)
        spec = s.qspec()
        assert spec.num_arcs == s.cube.num_arcs
        np.testing.assert_allclose(spec.total_rates(s.lam), s.rho)

    def test_workload_dimensions(self):
        s = GreedyHypercubeScheme(d=4, lam=1.0, p=0.5)
        wl = s.workload()
        assert wl.cube.d == 4
        assert wl.total_rate == pytest.approx(16.0)

    @pytest.mark.parametrize("bad", [dict(lam=0.0), dict(p=0.0), dict(p=1.2)])
    def test_rejects_bad_params(self, bad):
        kwargs = dict(d=3, lam=1.0, p=0.5)
        kwargs.update(bad)
        with pytest.raises(ConfigurationError):
            GreedyHypercubeScheme(**kwargs)

    def test_ps_discipline_run(self):
        s = GreedyHypercubeScheme(d=3, lam=1.0, p=0.5)
        fifo = s.run(150.0, rng=3)
        ps = s.run(150.0, rng=3, discipline="ps")
        # same workload (same seed); PS delays dominate on average
        assert ps.delays().mean() >= fifo.delays().mean() - 1e-9


class TestGreedyButterflyScheme:
    def test_theory_properties(self):
        s = GreedyButterflyScheme(d=4, lam=1.2, p=0.3)
        assert s.rho == pytest.approx(1.2 * 0.7)
        assert s.stable
        assert s.delay_lower_bound() >= 4.0

    def test_measured_delay_within_bounds(self):
        s = GreedyButterflyScheme(d=4, lam=1.4, p=0.5)  # rho = 0.7
        t = s.measure_delay(horizon=600.0, rng=11)
        assert s.delay_lower_bound() * 0.95 <= t <= s.delay_upper_bound() * 1.05

    def test_rspec_rates(self):
        s = GreedyButterflyScheme(d=3, lam=1.0, p=0.25)
        rates = s.rspec().total_rates(1.0)
        assert rates.max() == pytest.approx(0.75)

    def test_asymmetric_p_still_valid(self):
        # straight arcs are the bottleneck: rho_s = 0.8 >> rho_v = 0.2
        # (keep the bottleneck comfortably below 1 so a 600-unit horizon
        # reaches steady state; relaxation time blows up as (1-rho)^-2)
        s = GreedyButterflyScheme(d=3, lam=1.0, p=0.2)
        t = s.measure_delay(horizon=600.0, rng=13)
        assert s.delay_lower_bound() * 0.95 <= t <= s.delay_upper_bound() * 1.05


class TestSlottedScheme:
    def test_bound_is_continuous_plus_tau(self):
        s = SlottedGreedyHypercube(d=4, lam=1.2, p=0.5, tau=0.5)
        from repro.core.bounds import greedy_delay_upper_bound

        assert s.delay_upper_bound() == pytest.approx(
            greedy_delay_upper_bound(4, 1.2, 0.5) + 0.5
        )

    def test_measured_delay_below_slotted_bound(self):
        s = SlottedGreedyHypercube(d=4, lam=1.2, p=0.5, tau=0.5)  # rho=0.6
        t = s.measure_delay(horizon=600.0, rng=17)
        assert t <= s.delay_upper_bound() * 1.05

    def test_all_births_slot_aligned(self):
        s = SlottedGreedyHypercube(d=3, lam=1.0, p=0.5, tau=0.25)
        res = s.run(40.0, rng=19)
        np.testing.assert_allclose(res.sample.times % 0.25, 0.0, atol=1e-12)

    def test_rejects_bad_params(self):
        with pytest.raises(ConfigurationError):
            SlottedGreedyHypercube(d=3, lam=0.0, p=0.5)
        with pytest.raises(ConfigurationError):
            SlottedGreedyHypercube(d=3, lam=1.0, p=0.5, tau=0.3)

    def test_plugin_solves_on_its_engine(self, monkeypatch):
        """The scenario plugin solves each slotted sample with its
        resolved engine, so the feed-forward engine's ``chunk_packets``
        option reaches the level sweep for every replication, with the
        unchunked replication delays."""
        import repro.sim.feedforward as feedforward
        from repro.runner import get_scenario, measure

        sweep = feedforward.simulate_levelled
        chunks = []

        def counted(*args, chunk_packets=None, **kwargs):
            if chunk_packets is not None:
                chunks.append(chunk_packets)
            return sweep(*args, chunk_packets=chunk_packets, **kwargs)

        monkeypatch.setattr(feedforward, "simulate_levelled", counted)
        spec = get_scenario("hypercube-slotted").replace(
            d=4, horizon=120.0, replications=2
        )
        plain = measure(spec, jobs=1)
        assert chunks == []
        got = measure(
            spec.replace(extra={"tau": 0.5, "chunk_packets": 7}), jobs=1
        )
        assert chunks == [7, 7]
        assert got.replication_delays == plain.replication_delays
