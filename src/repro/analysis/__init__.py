"""Experiment harness: statistics, table formatting and theory checks.

This layer sits on top of the simulators and the closed-form theory and
produces the paper-shaped outputs recorded in ``EXPERIMENTS.md``:
delay-vs-load series (Props 12/13), stability sweeps (Prop 6), bound
checks, and the FIFO-vs-PS domination experiments (Prop 11).
Measurements themselves come from the scenario runner
(:func:`repro.runner.measure`).
"""

from repro.analysis.plotting import ascii_plot, sparkline
from repro.analysis.tables import format_series, format_table
from repro.analysis.theory import BoundCheck, check_measurement
from repro.stats import (
    batch_means_ci,
    mean_confidence_interval,
    time_average_step,
)

__all__ = [
    "batch_means_ci",
    "mean_confidence_interval",
    "time_average_step",
    "format_table",
    "format_series",
    "ascii_plot",
    "sparkline",
    "BoundCheck",
    "check_measurement",
]
