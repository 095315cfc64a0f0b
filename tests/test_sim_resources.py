"""The simulation time-series monitor."""

import pytest

from repro.errors import SimulationError
from repro.sim import TimeSeries


class TestTimeSeries:
    def test_integral_step_function(self):
        ts = TimeSeries()
        ts.record(0.0, 2.0)
        ts.record(10.0, 4.0)
        # 2.0 for 10 units, then 4.0 until t=20
        assert ts.integral(until=20.0) == pytest.approx(2 * 10 + 4 * 10)

    def test_time_weighted_mean(self):
        ts = TimeSeries()
        ts.record(0.0, 0.0)
        ts.record(10.0, 10.0)
        assert ts.time_weighted_mean(until=20.0) == pytest.approx(5.0)

    def test_empty_series(self):
        ts = TimeSeries()
        assert ts.integral() == 0.0
        assert ts.time_weighted_mean() == 0.0

    def test_non_monotonic_rejected(self):
        ts = TimeSeries()
        ts.record(5.0, 1.0)
        with pytest.raises(SimulationError):
            ts.record(4.0, 1.0)

    def test_until_before_first_sample(self):
        ts = TimeSeries()
        ts.record(10.0, 3.0)
        assert ts.integral(until=5.0) == 0.0

    def test_arrays(self):
        ts = TimeSeries()
        ts.record(1.0, 2.0)
        assert list(ts.times()) == [1.0]
        assert list(ts.values()) == [2.0]
        assert len(ts) == 1
