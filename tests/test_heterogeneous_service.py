"""The Prop 11 generality remark: levelled networks with per-arc
deterministic service times are also dominated by their PS versions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.qnetwork import ExplicitLevelledSpec
from repro.errors import ConfigurationError
from repro.sim.feedforward import EXIT, serve_level, simulate_markovian


def _fig2_spec():
    return ExplicitLevelledSpec(
        levels=[0, 0, 1],
        routing={
            0: ([2, EXIT], [0.6, 0.4]),
            1: ([2, EXIT], [0.7, 0.3]),
        },
    )


class TestServeLevelPerArcService:
    def test_scalar_vs_array_consistency(self):
        arcs = np.array([0, 1, 0])
        times = np.array([0.0, 0.0, 0.1])
        pids = np.arange(3)
        dep_scalar, _ = serve_level(arcs, times, pids, service=2.0)
        dep_array, _ = serve_level(
            arcs, times, pids, service=np.array([2.0, 2.0])
        )
        np.testing.assert_allclose(dep_scalar, dep_array)

    def test_different_speeds(self):
        # arc 0 fast (0.5), arc 1 slow (3.0)
        arcs = np.array([0, 1])
        times = np.zeros(2)
        dep, _ = serve_level(
            arcs, times, np.arange(2), service=np.array([0.5, 3.0])
        )
        np.testing.assert_allclose(dep, [0.5, 3.0])

    def test_queueing_with_slow_server(self):
        arcs = np.zeros(3, dtype=np.int64)
        times = np.zeros(3)
        dep, _ = serve_level(
            arcs, times, np.arange(3), service=np.array([2.0])
        )
        np.testing.assert_allclose(np.sort(dep), [2.0, 4.0, 6.0])

    @pytest.mark.parametrize("discipline", ["fifo", "ps"])
    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
    @pytest.mark.parametrize("per_arc", [False, True])
    def test_rejects_nonpositive_service(self, discipline, bad, per_arc):
        """A touched arc's service must be > 0 under either discipline
        (a FIFO packet served in -1 would leave before it arrived)."""
        arcs = np.array([0, 0, 1])
        times = np.array([0.0, 0.5, 0.2])
        service = np.array([bad, 1.0]) if per_arc else bad
        with pytest.raises(ValueError, match="service time must be > 0"):
            serve_level(arcs, times, np.arange(3), discipline, service=service)

    def test_untouched_arc_service_is_not_checked(self):
        dep, _ = serve_level(
            np.array([1]), np.array([0.0]), np.array([0]),
            service=np.array([-1.0, 2.0]),
        )
        np.testing.assert_array_equal(dep, [2.0])


class TestHeterogeneousMarkovian:
    def test_exit_times_reflect_services(self):
        spec = _fig2_spec()
        services = np.array([0.5, 2.0, 1.5])
        times = np.array([0.0])
        arcs = np.array([0])
        res = simulate_markovian(
            spec,
            times,
            arcs,
            decisions={0: np.array([2]), 2: np.array([EXIT])},
            service_times=services,
        )
        # 0.5 at S1 then 1.5 at S3
        assert res.exit_times[0] == pytest.approx(2.0)

    def test_validates_service_shape(self):
        spec = _fig2_spec()
        with pytest.raises(ConfigurationError):
            simulate_markovian(
                spec,
                np.array([0.0]),
                np.array([0]),
                service_times=np.array([1.0, 1.0]),
            )
        with pytest.raises(ConfigurationError):
            simulate_markovian(
                spec,
                np.array([0.0]),
                np.array([0]),
                service_times=np.array([1.0, -1.0, 1.0]),
            )

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=5000))
    def test_property_domination_heterogeneous(self, seed):
        """Lemma 9/10 with per-arc service times: coupled FIFO network
        departures still never trail the PS network's."""
        gen = np.random.default_rng(seed)
        spec = _fig2_spec()
        services = gen.uniform(0.3, 3.0, size=3)
        n = int(gen.integers(1, 100))
        times = np.sort(gen.random(n) * 40.0)
        arcs = gen.integers(0, 2, size=n)
        fifo = simulate_markovian(
            spec,
            times,
            arcs,
            rng=seed,
            record_decisions=True,
            service_times=services,
        )
        ps = simulate_markovian(
            spec,
            times,
            arcs,
            discipline="ps",
            decisions=fifo.decisions,
            service_times=services,
        )
        ef, ep = np.sort(fifo.exit_times), np.sort(ps.exit_times)
        assert np.all(ef <= ep + 1e-9)

    def test_population_domination_heterogeneous(self):
        gen = np.random.default_rng(77)
        spec = _fig2_spec()
        services = np.array([0.7, 1.8, 1.2])
        n = 300
        times = np.sort(gen.random(n) * 100.0)
        arcs = gen.integers(0, 2, size=n)
        fifo = simulate_markovian(
            spec, times, arcs, rng=78, record_decisions=True,
            service_times=services,
        )
        ps = simulate_markovian(
            spec, times, arcs, discipline="ps",
            decisions=fifo.decisions, service_times=services,
        )
        grid = np.linspace(0, 300, 3001)
        nf = np.searchsorted(times, grid, side="right") - np.searchsorted(
            np.sort(fifo.exit_times), grid, side="right"
        )
        np_ = np.searchsorted(times, grid, side="right") - np.searchsorted(
            np.sort(ps.exit_times), grid, side="right"
        )
        assert np.all(nf <= np_)
