"""Tests for the CLI, ASCII plotting, and slotted butterfly."""

import pytest

from repro.__main__ import build_parser, main
from repro.analysis.plotting import ascii_plot, sparkline
from repro.sim.slotted import SlottedGreedyButterfly


class TestSparkline:
    def test_monotone_series(self):
        s = sparkline([1, 2, 3, 4])
        assert len(s) == 4
        assert s[0] == "▁" and s[-1] == "█"

    def test_constant_series(self):
        assert sparkline([5, 5, 5]) == "▁▁▁"

    def test_empty(self):
        assert sparkline([]) == ""


class TestAsciiPlot:
    def test_contains_marker_and_labels(self):
        out = ascii_plot([0, 1, 2], [5, 7, 6], xlabel="load", ylabel="delay")
        assert "*" in out
        assert "load" in out and "delay" in out

    def test_extremes_on_canvas(self):
        out = ascii_plot([0, 10], [0, 100], width=20, height=5)
        lines = out.split("\n")
        # min and max y labels present
        assert any("100" in l for l in lines)
        assert any(l.strip().startswith("0 |") for l in lines)

    def test_validates(self):
        with pytest.raises(ValueError):
            ascii_plot([1], [1, 2])
        with pytest.raises(ValueError):
            ascii_plot([1], [1], width=5, height=2)

    def test_empty(self):
        assert ascii_plot([], []) == "(empty plot)"


class TestSlottedButterfly:
    def test_delay_below_bound(self):
        s = SlottedGreedyButterfly(d=4, lam=1.2, p=0.5, tau=0.5)
        t = s.measure_delay(500.0, rng=1)
        assert t <= s.delay_upper_bound() * 1.05

    def test_rho(self):
        s = SlottedGreedyButterfly(d=3, lam=1.0, p=0.2, tau=0.5)
        assert s.rho == pytest.approx(0.8)

    def test_rejects_bad_tau(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            SlottedGreedyButterfly(d=3, lam=1.0, p=0.5, tau=0.4)


class TestCLI:
    def test_bounds_command(self, capsys):
        rc = main(["bounds", "--d", "4", "--rho", "0.5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Prop 12" in out
        assert "yes" in out  # stable

    def test_bounds_unstable(self, capsys):
        rc = main(["bounds", "--d", "4", "--rho", "1.2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "no" in out

    def test_bounds_butterfly(self, capsys):
        rc = main(["bounds", "--network", "butterfly", "--d", "4", "--rho", "0.6"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Prop 17" in out

    def test_simulate_command(self, capsys):
        rc = main(
            [
                "simulate",
                "--d",
                "3",
                "--rho",
                "0.5",
                "--horizon",
                "200",
                "--seed",
                "3",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "inside the bracket" in out

    def test_sweep_command(self, capsys):
        rc = main(
            ["sweep", "--d", "3", "--points", "3", "--horizon", "100"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "*" in out  # the plot

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])
