"""Bounded-memory streaming estimators (P², Welford, windowed rates)."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ExperimentError
from repro.metrics.streaming import (
    P2Quantile,
    StreamingMoments,
    StreamingSummary,
    WindowedRate,
)

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def lognormal_stream(n, seed):
    rng = np.random.default_rng(seed)
    return rng.lognormal(mean=5.0, sigma=0.6, size=n)


class TestP2Quantile:
    def test_invalid_quantile_rejected(self):
        for q in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ExperimentError):
                P2Quantile(q)

    def test_empty_raises(self):
        with pytest.raises(ExperimentError, match="no samples"):
            P2Quantile(0.5).value

    def test_small_streams_exact(self):
        # Below six samples the estimate is the exact order statistic.
        samples = [5.0, 1.0, 3.0, 2.0, 4.0]
        for n in range(1, 6):
            est = P2Quantile(0.5)
            for x in samples[:n]:
                est.add(x)
            assert est.value == pytest.approx(
                float(np.percentile(samples[:n], 50.0))
            )

    def test_memory_is_constant(self):
        est = P2Quantile(0.99)
        for x in lognormal_stream(10_000, seed=7):
            est.add(x)
        assert len(est._heights) == 5  # five markers, however long the stream

    @pytest.mark.parametrize("p", [50.0, 95.0, 99.0])
    def test_50k_lognormal_within_one_percent(self, p):
        # The ISSUE acceptance bound: replayed 50k-sample heavy-tailed
        # stream, streaming percentile within 1% of the exact statistic.
        samples = lognormal_stream(50_000, seed=2025)
        est = P2Quantile(p / 100.0)
        for x in samples:
            est.add(x)
        exact = float(np.percentile(samples, p))
        assert abs(est.value - exact) / exact < 0.01

    @staticmethod
    def exponential_case(seed, q, n=8000):
        samples = np.random.default_rng(seed).exponential(100.0, size=n)
        est = P2Quantile(q)
        for x in samples:
            est.add(x)
        return est.value, float(np.percentile(samples, 100.0 * q))

    @staticmethod
    def quantile_rel_se(q, n=8000):
        """Relative standard error of the exact sample q-quantile of ``n``
        exponential draws: ``sqrt(q(1-q)/n) / (f(x_q) x_q)``."""
        return math.sqrt(q / ((1.0 - q) * n)) / math.log(1.0 / (1.0 - q))

    @settings(max_examples=15, deadline=None)
    @given(seed=seeds, q=st.sampled_from([0.5, 0.9, 0.99]))
    @example(seed=712, q=0.99)  # 6.3% off at n = 8000, 0.3% at n = 64000
    def test_property_converges_to_exact(self, seed, q):
        # P² and the exact sample quantile both estimate the population
        # quantile, so their gap is bounded in units of the quantile's own
        # standard error: 4.8%, 4.4% and 7.2% at q = 0.5, 0.9 and 0.99.
        value, exact = self.exponential_case(seed, q)
        assert value == pytest.approx(exact, rel=3.0 * self.quantile_rel_se(q))

    @pytest.mark.xfail(
        strict=True,
        reason="P² defect at q = 0.99: the q and (1+q)/2 markers collapse "
        "onto one height ~22% too high and stay there from n = 2000 to "
        "64000; a step interpolated between two equal heights barely moves",
    )
    @pytest.mark.parametrize("seed", [170, 1147])
    def test_extreme_quantile_lock_in(self, seed):
        value, exact = self.exponential_case(seed, 0.99)
        assert value == pytest.approx(exact, rel=3.0 * self.quantile_rel_se(0.99))

    @settings(max_examples=15, deadline=None)
    @given(seed=seeds)
    def test_property_deterministic_replay(self, seed):
        samples = lognormal_stream(2000, seed)
        a, b = P2Quantile(0.95), P2Quantile(0.95)
        for x in samples:
            a.add(x)
        for x in samples:
            b.add(x)
        assert a.snapshot() == b.snapshot()  # bit-identical

    def test_estimate_brackets_extremes(self):
        samples = lognormal_stream(1000, seed=3)
        est = P2Quantile(0.5)
        for x in samples:
            est.add(x)
        assert samples.min() <= est.value <= samples.max()


class TestStreamingMoments:
    def test_empty_raises(self):
        m = StreamingMoments()
        for attr in ("mean", "variance", "min", "max"):
            with pytest.raises(ExperimentError):
                getattr(m, attr)
        with pytest.raises(ExperimentError):
            m.snapshot()

    def test_single_sample(self):
        m = StreamingMoments()
        m.add(42.0)
        assert m.mean == 42.0 and m.variance == 0.0
        assert m.min == 42.0 and m.max == 42.0 and m.total == 42.0

    @settings(max_examples=20, deadline=None)
    @given(seed=seeds)
    def test_property_matches_numpy(self, seed):
        samples = lognormal_stream(500, seed)
        m = StreamingMoments()
        for x in samples:
            m.add(x)
        assert m.mean == pytest.approx(float(np.mean(samples)))
        assert m.variance == pytest.approx(float(np.var(samples, ddof=1)))
        assert m.std == pytest.approx(float(np.std(samples, ddof=1)))
        assert m.min == float(samples.min())
        assert m.max == float(samples.max())
        assert m.total == pytest.approx(float(samples.sum()))


class TestWindowedRate:
    def test_window_validation(self):
        with pytest.raises(ExperimentError):
            WindowedRate(window=0)

    def test_empty_rates_are_zero(self):
        r = WindowedRate(window=4)
        assert r.rate == 0.0 and r.windowed_rate == 0.0

    def test_window_rolls_off(self):
        r = WindowedRate(window=4)
        for outcome in (False, False, False, False):
            r.add(outcome)
        assert r.windowed_rate == 0.0
        for outcome in (True, True, True, True):
            r.add(outcome)
        # Failures have rolled off the window; all-time rate remembers them.
        assert r.windowed_rate == 1.0
        assert r.rate == pytest.approx(0.5)

    def test_snapshot_keys(self):
        r = WindowedRate(window=8)
        r.add(True)
        assert r.snapshot() == {
            "count": 1.0, "rate": 1.0, "windowed_rate": 1.0, "window": 8.0,
        }


class TestStreamingSummary:
    def test_needs_percentiles(self):
        with pytest.raises(ExperimentError):
            StreamingSummary(())

    def test_empty_snapshot_raises(self):
        with pytest.raises(ExperimentError, match="no samples"):
            StreamingSummary().snapshot()

    def test_untracked_percentile_raises(self):
        s = StreamingSummary((50.0,))
        s.add(1.0)
        with pytest.raises(ExperimentError, match="not tracked"):
            s.percentile(99.0)

    def test_snapshot_mirrors_percentile_summary_keys(self):
        s = StreamingSummary()
        for x in lognormal_stream(200, seed=1):
            s.add(x)
        snap = s.snapshot()
        assert set(snap) == {"p50", "p95", "p99", "mean", "min", "max", "count"}
        assert snap["count"] == 200.0
        assert snap["min"] <= snap["p50"] <= snap["p95"] <= snap["p99"]
        assert snap["p99"] <= snap["max"]

    def test_50k_stream_close_to_exact_summary(self):
        from repro.metrics.stats import percentile_summary

        samples = lognormal_stream(50_000, seed=2025)
        s = StreamingSummary()
        for x in samples:
            s.add(x)
        exact = percentile_summary(samples)
        snap = s.snapshot()
        for key in ("p50", "p95", "p99"):
            assert abs(snap[key] - exact[key]) / exact[key] < 0.01
        assert snap["mean"] == pytest.approx(exact["mean"])
        assert snap["min"] == exact["min"] and snap["max"] == exact["max"]

    @settings(max_examples=10, deadline=None)
    @given(seed=seeds)
    def test_property_snapshot_deterministic(self, seed):
        samples = lognormal_stream(1500, seed)
        a, b = StreamingSummary(), StreamingSummary()
        for x in samples:
            a.add(x)
        for x in samples:
            b.add(x)
        assert a.snapshot() == b.snapshot()
