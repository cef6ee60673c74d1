"""Statistical utilities for steady-state simulation output analysis.

Simulated delays are serially correlated (queueing systems mix slowly
near saturation), so naive i.i.d. confidence intervals are too
optimistic.  The standard remedy used here is the **batch-means**
method: split the (time-ordered) observations into ``k`` contiguous
batches, treat batch averages as approximately independent normal
samples, and build a t-interval from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

__all__ = [
    "mean_confidence_interval",
    "batch_means_ci",
    "time_average_step",
    "ConfidenceInterval",
]


@dataclass(frozen=True, slots=True)
class ConfidenceInterval:
    """A symmetric confidence interval ``mean ± halfwidth``."""

    mean: float
    halfwidth: float
    confidence: float
    num_samples: int

    @property
    def lo(self) -> float:
        return self.mean - self.halfwidth

    @property
    def hi(self) -> float:
        return self.mean + self.halfwidth

    def contains(self, value: float) -> bool:
        return self.lo <= value <= self.hi


def mean_confidence_interval(
    samples: np.ndarray, confidence: float = 0.95
) -> ConfidenceInterval:
    """t-interval for the mean of (assumed independent) samples."""
    x = np.asarray(samples, dtype=float)
    n = x.shape[0]
    if n == 0:
        raise ValueError("cannot build a confidence interval from zero samples")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    m = float(x.mean())
    if n == 1:
        return ConfidenceInterval(m, math.inf, confidence, 1)
    se = float(x.std(ddof=1)) / math.sqrt(n)
    # ``stdtrit`` is what ``scipy.stats.t.ppf`` evaluates, bit for bit.
    # Imported here, scipy loads only in a process that pools an interval,
    # and then only ``scipy.special``, under a third of ``scipy.stats``'s cost.
    from scipy.special import stdtrit

    tcrit = float(stdtrit(n - 1, 0.5 + confidence / 2.0))
    return ConfidenceInterval(m, tcrit * se, confidence, n)


def batch_means_ci(
    samples: np.ndarray,
    num_batches: int = 20,
    confidence: float = 0.95,
) -> ConfidenceInterval:
    """Batch-means confidence interval for serially correlated data.

    *samples* must be in time order.  The trailing remainder that does
    not fill a whole batch is dropped.
    """
    x = np.asarray(samples, dtype=float)
    if num_batches < 2:
        raise ValueError(f"need at least 2 batches, got {num_batches}")
    n = x.shape[0]
    if n < num_batches:
        raise ValueError(
            f"need at least one sample per batch: {n} samples, {num_batches} batches"
        )
    batch_size = n // num_batches
    used = batch_size * num_batches
    means = x[:used].reshape(num_batches, batch_size).mean(axis=1)
    ci = mean_confidence_interval(means, confidence)
    # Overall mean from all used samples; the spread comes from batches.
    return ConfidenceInterval(
        float(x[:used].mean()), ci.halfwidth, confidence, num_batches
    )


def time_average_step(
    event_times: np.ndarray,
    increments: np.ndarray,
    t0: float,
    t1: float,
    initial: float = 0.0,
) -> float:
    """Time average over ``[t0, t1]`` of a right-continuous step process.

    The process starts at *initial* and jumps by ``increments[i]`` at
    ``event_times[i]`` (sorted ascending).  Used for population and
    queue-length averages: births are ``+1`` events, deliveries ``-1``.
    """
    if t1 <= t0:
        raise ValueError(f"need t1 > t0, got [{t0}, {t1}]")
    t = np.asarray(event_times, dtype=float)
    dx = np.asarray(increments, dtype=float)
    if t.shape != dx.shape:
        raise ValueError("event_times and increments must be parallel")
    if t.shape[0] == 0:
        return float(initial)
    if np.any(np.diff(t) < 0):
        raise ValueError("event_times must be sorted ascending")
    # Value just after each event, plus the starting value.
    values = initial + np.cumsum(dx)
    # Integrate the step function over [t0, t1].
    level_start = initial if t.shape[0] == 0 else float(
        initial + dx[t <= t0].sum()
    )
    inside = (t > t0) & (t < t1)
    times_in = np.concatenate(([t0], t[inside], [t1]))
    vals_in = np.concatenate(([level_start], values[inside]))
    return float(np.sum(vals_in * np.diff(times_in)) / (t1 - t0))
