"""Tests for measurement collectors and statistics utilities."""

import math

import numpy as np
import pytest

from repro.errors import MeasurementError
from repro.sim.measurement import (
    DelayRecord,
    PopulationTracker,
    arc_arrival_counts,
)
from repro.stats import (
    batch_means_ci,
    mean_confidence_interval,
    time_average_step,
)


class TestDelayRecord:
    def _record(self):
        birth = np.array([0.0, 10.0, 50.0, 90.0])
        delivery = birth + np.array([1.0, 2.0, 3.0, 4.0])
        return DelayRecord(birth, delivery, horizon=100.0)

    def test_delays(self):
        np.testing.assert_allclose(self._record().delays(), [1, 2, 3, 4])

    def test_steady_state_mask_trims_both_ends(self):
        rec = self._record()
        mask = rec.steady_state_mask(warmup_fraction=0.2, cooldown_fraction=0.1)
        # keeps births in [20, 90]
        np.testing.assert_array_equal(mask, [False, False, True, True])

    def test_mean_delay(self):
        rec = self._record()
        assert rec.mean_delay(0.2, 0.1) == pytest.approx(3.5)

    def test_mean_delay_no_trim(self):
        assert self._record().mean_delay(0.0, 0.0) == pytest.approx(2.5)

    def test_empty_window_raises(self):
        rec = DelayRecord(np.array([0.0]), np.array([1.0]), horizon=100.0)
        with pytest.raises(MeasurementError):
            rec.mean_delay(0.5, 0.4)

    def test_rejects_negative_delay(self):
        with pytest.raises(MeasurementError):
            DelayRecord(np.array([1.0]), np.array([0.5]), horizon=10.0)

    def test_rejects_bad_fractions(self):
        rec = self._record()
        with pytest.raises(MeasurementError):
            rec.steady_state_mask(0.7, 0.5)
        with pytest.raises(MeasurementError):
            rec.steady_state_mask(-0.1, 0.0)

    def test_ci_contains_mean(self):
        gen = np.random.default_rng(0)
        birth = np.sort(gen.random(4000) * 100)
        delivery = birth + gen.exponential(2.0, size=4000)
        rec = DelayRecord(birth, delivery, horizon=100.0)
        ci = rec.mean_delay_ci(0.1, 0.1)
        assert ci.lo <= rec.mean_delay(0.1, 0.1) <= ci.hi

    def test_ci_needs_enough_samples(self):
        rec = self._record()
        with pytest.raises(MeasurementError):
            rec.mean_delay_ci(num_batches=20)


class TestPopulationTracker:
    def test_from_intervals_basic(self):
        # one packet alive on [0, 2), another on [1, 3)
        pt = PopulationTracker.from_intervals(
            np.array([0.0, 1.0]), np.array([2.0, 3.0])
        )
        assert pt.at(0.5) == 1
        assert pt.at(1.5) == 2
        assert pt.at(2.5) == 1
        assert pt.at(3.5) == 0

    def test_time_average(self):
        pt = PopulationTracker.from_intervals(np.array([0.0]), np.array([1.0]))
        assert pt.time_average(0.0, 2.0) == pytest.approx(0.5)

    def test_maximum(self):
        pt = PopulationTracker.from_intervals(
            np.array([0.0, 0.1, 0.2]), np.array([5.0, 5.0, 5.0])
        )
        assert pt.maximum() == 3

    def test_little_law_consistency(self):
        # random intervals: time-average population == total sojourn / window
        gen = np.random.default_rng(1)
        starts = np.sort(gen.random(500) * 100)
        ends = starts + gen.exponential(1.5, size=500)
        pt = PopulationTracker.from_intervals(starts, ends)
        window_end = float(ends.max())
        avg = pt.time_average(0.0, window_end)
        assert avg == pytest.approx((ends - starts).sum() / window_end, rel=1e-9)

    def test_counting_process_shapes(self):
        pt = PopulationTracker.from_intervals(np.array([0.0]), np.array([1.0]))
        t, v = pt.counting_process()
        assert t.shape == v.shape == (2,)

    def test_mismatched_intervals_raise(self):
        with pytest.raises(MeasurementError):
            PopulationTracker.from_intervals(np.array([0.0]), np.array([1.0, 2.0]))


class TestArcCounts:
    def test_bincount(self):
        counts = arc_arrival_counts(np.array([0, 1, 1, 3]), 5)
        np.testing.assert_array_equal(counts, [1, 2, 0, 1, 0])

    def test_out_of_range_raises(self):
        with pytest.raises(MeasurementError):
            arc_arrival_counts(np.array([5]), 5)


class TestStats:
    def test_mean_ci_basic(self):
        gen = np.random.default_rng(2)
        x = gen.normal(10.0, 2.0, size=400)
        ci = mean_confidence_interval(x)
        assert ci.contains(float(x.mean()))
        assert ci.halfwidth < 0.5

    def test_mean_ci_single_sample_infinite(self):
        ci = mean_confidence_interval(np.array([3.0]))
        assert math.isinf(ci.halfwidth)

    def test_mean_ci_empty_raises(self):
        with pytest.raises(ValueError):
            mean_confidence_interval(np.array([]))

    @pytest.mark.parametrize("confidence", [0.0, 1.0, -0.1, 1.5, math.nan])
    def test_confidence_outside_unit_interval_raises(self, confidence):
        x = np.arange(40.0)
        with pytest.raises(ValueError, match="confidence"):
            mean_confidence_interval(x, confidence)
        with pytest.raises(ValueError, match="confidence"):
            batch_means_ci(x, num_batches=4, confidence=confidence)

    def test_t_quantile_matches_scipy_stats_bit_for_bit(self):
        # stdtrit is what scipy.stats.t.ppf evaluates, so every pooled
        # interval carries the bits t.ppf gives
        from scipy import stats

        x = np.random.default_rng(5).normal(4.0, 1.5, size=501)
        for n in range(2, 502):
            se = float(x[:n].std(ddof=1)) / math.sqrt(n)
            for c in (0.5, 0.8, 0.9, 0.95, 0.99, 0.999):
                expected = float(stats.t.ppf(0.5 + c / 2, df=n - 1)) * se
                got = mean_confidence_interval(x[:n], c).halfwidth
                assert got.hex() == expected.hex(), (n, c)

    def test_batch_means_wider_than_iid_for_correlated(self):
        # AR(1)-style positively correlated series
        gen = np.random.default_rng(3)
        n = 4000
        x = np.empty(n)
        x[0] = 0.0
        eps = gen.normal(size=n)
        for i in range(1, n):
            x[i] = 0.9 * x[i - 1] + eps[i]
        naive = mean_confidence_interval(x)
        batched = batch_means_ci(x, num_batches=20)
        assert batched.halfwidth > naive.halfwidth

    def test_batch_means_validates(self):
        with pytest.raises(ValueError):
            batch_means_ci(np.arange(10.0), num_batches=1)
        with pytest.raises(ValueError):
            batch_means_ci(np.arange(5.0), num_batches=10)

    def test_time_average_step_constant(self):
        assert time_average_step(
            np.array([]), np.array([]), 0.0, 1.0, initial=3.0
        ) == pytest.approx(3.0)

    def test_time_average_step_square_wave(self):
        # +1 at t=1, -1 at t=2 over [0, 4]: average = 1/4
        t = np.array([1.0, 2.0])
        dx = np.array([1.0, -1.0])
        assert time_average_step(t, dx, 0.0, 4.0) == pytest.approx(0.25)

    def test_time_average_step_window_inside(self):
        t = np.array([1.0, 3.0])
        dx = np.array([2.0, -2.0])
        # over [2, 3]: level is 2 throughout
        assert time_average_step(t, dx, 2.0, 3.0) == pytest.approx(2.0)

    def test_time_average_step_validates(self):
        with pytest.raises(ValueError):
            time_average_step(np.array([1.0]), np.array([1.0]), 2.0, 1.0)
        with pytest.raises(ValueError):
            time_average_step(np.array([2.0, 1.0]), np.array([1.0, 1.0]), 0.0, 3.0)
