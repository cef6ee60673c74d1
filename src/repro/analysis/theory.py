"""Theory-vs-measurement comparators.

Small helpers that turn a :class:`~repro.runner.results.DelayMeasurement`
(or raw numbers) into pass/fail verdicts with slack, used by both the
test suite and the benchmark harness when writing ``EXPERIMENTS.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.runner.results import DelayMeasurement

__all__ = ["BoundCheck", "check_measurement", "relative_position"]


@dataclass(frozen=True)
class BoundCheck:
    """Verdict of one measurement against its theoretical bracket."""

    measurement: DelayMeasurement
    holds: bool
    slack_lower: float
    slack_upper: float
    position: float

    def summary_row(self) -> tuple:
        m = self.measurement
        return (
            m.network,
            m.d,
            m.rho,
            m.p,
            m.lower_bound,
            m.mean_delay,
            m.upper_bound,
            self.holds,
        )


def relative_position(value: float, lo: float, hi: float) -> float:
    """Where *value* sits in ``[lo, hi]``: 0 at the lower bound, 1 at
    the upper (can exceed the range when a bound is violated)."""
    if hi <= lo:
        return 0.0 if value <= lo else 1.0
    return (value - lo) / (hi - lo)


def check_measurement(
    m: DelayMeasurement, statistical_slack: float = 0.0
) -> BoundCheck:
    """Check a measurement against the paper's bracket.

    *statistical_slack* widens the bracket multiplicatively (e.g. 0.05
    for ±5%) to absorb finite-horizon noise when the point estimate has
    no confidence interval attached.
    """
    lo = m.lower_bound * (1.0 - statistical_slack)
    hi = m.upper_bound * (1.0 + statistical_slack)
    return BoundCheck(
        measurement=m,
        holds=lo <= m.mean_delay <= hi,
        slack_lower=m.mean_delay - m.lower_bound,
        slack_upper=m.upper_bound - m.mean_delay,
        position=relative_position(m.mean_delay, m.lower_bound, m.upper_bound),
    )
