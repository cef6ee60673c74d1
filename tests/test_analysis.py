"""Tests for the analysis harness (tables, theory checks) and the
paper's delay brackets measured through the scenario runner."""

import pytest

from repro.analysis.tables import format_cell, format_series, format_table
from repro.analysis.theory import check_measurement, relative_position
from repro.runner import ScenarioSpec, measure, measure_many


def greedy_spec(network="hypercube", **overrides) -> ScenarioSpec:
    params = dict(
        name=f"analysis-{network}",
        network=network,
        d=4,
        rho=0.6,
        horizon=250.0,
        replications=1,
        seed_policy="sequential",
    )
    params.update(overrides)
    return ScenarioSpec(**params)


class TestMeasurements:
    def test_hypercube_measurement_fields(self):
        m = measure(greedy_spec(base_seed=0))
        assert m.network == "hypercube"
        assert m.d == 4
        assert m.rho == 0.6
        assert m.lam == pytest.approx(1.2)
        assert m.num_packets > 0
        assert m.within_bounds

    def test_hypercube_with_ci(self):
        m = measure(greedy_spec(rho=0.5, horizon=300.0, replications=4, base_seed=1))
        assert m.ci is not None
        assert m.ci.lo <= m.mean_delay <= m.ci.hi

    def test_butterfly_measurement(self):
        m = measure(greedy_spec("butterfly", base_seed=2))
        assert m.network == "butterfly"
        assert m.within_bounds

    def test_normalised_delay(self):
        m = measure(greedy_spec(rho=0.5, horizon=200.0, base_seed=3))
        assert m.normalised_delay == pytest.approx(m.mean_delay / 4)

    def test_sweep_returns_one_point_per_rho(self):
        spec = greedy_spec(d=3, horizon=150.0, base_seed=4)
        points = measure_many([spec.replace(rho=rho) for rho in (0.3, 0.6)])
        assert len(points) == 2
        assert [p.rho for p in points] == [0.3, 0.6]

    def test_sweep_delay_increases_with_load(self):
        spec = greedy_spec(horizon=500.0, base_seed=5)
        points = measure_many([spec.replace(rho=rho) for rho in (0.2, 0.8)])
        assert points[0].mean_delay < points[1].mean_delay


class TestTheoryChecks:
    def test_relative_position(self):
        assert relative_position(5.0, 0.0, 10.0) == pytest.approx(0.5)
        assert relative_position(0.0, 0.0, 10.0) == 0.0
        assert relative_position(1.0, 2.0, 2.0) == 0.0

    def test_check_measurement_pass(self):
        m = measure(greedy_spec(horizon=400.0, base_seed=6))
        check = check_measurement(m)
        assert check.holds
        assert 0.0 <= check.position <= 1.0
        assert len(check.summary_row()) == 8

    def test_statistical_slack_widens(self):
        m = measure(greedy_spec(d=3, rho=0.5, horizon=200.0, base_seed=7))
        strict = check_measurement(m, statistical_slack=0.0)
        loose = check_measurement(m, statistical_slack=0.5)
        assert loose.holds or not strict.holds  # slack can only help


class TestTables:
    def test_format_cell(self):
        assert format_cell(True) == "yes"
        assert format_cell(1.23456789) == "1.235"
        assert format_cell(0.0) == "0"
        assert format_cell(float("nan")) == "nan"
        assert format_cell(1e7) == "1.000e+07"
        assert format_cell("abc") == "abc"

    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [[1, 2.5], [30, 4]], title="T")
        lines = out.split("\n")
        assert lines[0] == "T"
        assert len(lines) == 5  # title, header, rule, 2 rows
        # all rows equal width
        assert len({len(l) for l in lines[1:]}) == 1

    def test_format_table_rejects_ragged(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_format_series(self):
        out = format_series("y", [1, 2], [3.0, 4.0], xlabel="x")
        assert "x" in out and "y" in out

    def test_format_series_rejects_mismatch(self):
        with pytest.raises(ValueError):
            format_series("y", [1], [1, 2])
