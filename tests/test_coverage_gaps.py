"""Tests for remaining API surfaces not covered elsewhere."""

import numpy as np
import pytest

from repro.core.greedy import GreedyHypercubeScheme
from repro.runner import ScenarioSpec, measure_many
from repro.sim.feedforward import ArcLog
from repro.sim.fixedpoint import simulate_paths_fixed_point


class TestArcLogForArc:
    def test_filters_and_orders(self):
        log = ArcLog(
            pid=np.array([2, 0, 1]),
            arc=np.array([5, 5, 3]),
            t_in=np.array([4.0, 1.0, 0.0]),
            t_out=np.array([5.0, 2.0, 1.0]),
        )
        sub = log.for_arc(5)
        assert sub.num_hops == 2
        # service order: by (t_in, pid)
        np.testing.assert_array_equal(sub.pid, [0, 2])
        np.testing.assert_allclose(sub.t_in, [1.0, 4.0])

    def test_empty_arc(self):
        log = ArcLog(
            pid=np.array([0]),
            arc=np.array([1]),
            t_in=np.array([0.0]),
            t_out=np.array([1.0]),
        )
        assert log.for_arc(7).num_hops == 0


class TestEventSimExtras:
    def test_ps_with_custom_service(self):
        res = simulate_paths_fixed_point(
            1, np.array([0.0, 0.0]), [[0], [0]], discipline="ps", service=2.0
        )
        # two customers sharing a 2-unit-work server: both depart at 4
        np.testing.assert_allclose(res.delivery, [4.0, 4.0])


class TestSweepButterfly:
    def test_butterfly_network_sweep(self):
        spec = ScenarioSpec(
            name="sweep-butterfly", network="butterfly", d=3, rho=0.4,
            horizon=200.0, replications=1, base_seed=1, seed_policy="sequential",
        )
        points = measure_many([spec.replace(rho=rho) for rho in (0.4, 0.7)])
        assert [p.network for p in points] == ["butterfly", "butterfly"]
        assert points[0].mean_delay < points[1].mean_delay


class TestCliButterflySimulate:
    def test_simulate_butterfly(self, capsys):
        from repro.__main__ import main

        rc = main(
            [
                "simulate",
                "--network",
                "butterfly",
                "--d",
                "3",
                "--rho",
                "0.5",
                "--horizon",
                "150",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "butterfly" in out


class TestFormatCellVariants:
    def test_ints_and_negatives(self):
        from repro.analysis.tables import format_cell

        assert format_cell(42) == "42"
        assert format_cell(-1.5) == "-1.5"
        assert format_cell(-1e-5) == "-1.000e-05"
        assert format_cell(False) == "no"


class TestSchemeRunRecordInteraction:
    def test_run_with_all_options(self):
        scheme = GreedyHypercubeScheme(d=3, lam=1.0, p=0.5)
        res = scheme.run(
            60.0, rng=3, discipline="ps", dim_order=[2, 0, 1], record_arc_log=True
        )
        assert res.arc_log is not None
        assert np.all(res.delivery >= res.sample.times)

    def test_two_phase_empty_run(self):
        from repro.schemes.twophase import TwoPhaseScheme
        from repro.traffic.destinations import BernoulliFlipLaw

        s = TwoPhaseScheme(d=3, lam=0.01, law=BernoulliFlipLaw(3, 0.5))
        res = s.run(0.05, rng=4)  # likely zero packets
        assert res.mean_hops() >= 0.0


class TestUniversalBoundMonotonicity:
    def test_exact_bound_monotone_in_rho(self):
        from repro.core.bounds import universal_delay_lower_bound

        vals = [
            universal_delay_lower_bound(3, rho / 0.5, 0.5, mdc_method="exact")
            for rho in (0.5, 0.8, 0.95)
        ]
        assert vals == sorted(vals)

    def test_general_matches_bernoulli_specialisation(self):
        from repro.core.bounds import oblivious_delay_lower_bound
        from repro.core.general import general_oblivious_lower_bound
        from repro.traffic.destinations import BernoulliFlipLaw

        d, lam, p = 4, 1.2, 0.5
        law = BernoulliFlipLaw(d, p)
        assert general_oblivious_lower_bound(lam, law) == pytest.approx(
            oblivious_delay_lower_bound(d, lam, p)
        )
