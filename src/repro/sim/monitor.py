"""Measurement helper for simulations: a step-function time series."""

from __future__ import annotations

import numpy as np

from ..errors import SimulationError

__all__ = ["TimeSeries"]


class TimeSeries:
    """Step-function time series of (time, value) samples.

    Used for resource-usage accounting: record the value whenever it changes
    and integrate the step function for averages (millicore-seconds etc.).
    """

    def __init__(self) -> None:
        self._times: list[float] = []
        self._values: list[float] = []

    def __len__(self) -> int:
        return len(self._times)

    def record(self, time: float, value: float) -> None:
        """Append a sample; time must be non-decreasing."""
        if self._times and time < self._times[-1]:
            raise SimulationError(
                f"non-monotonic sample time {time} < {self._times[-1]}"
            )
        self._times.append(float(time))
        self._values.append(float(value))

    def times(self) -> np.ndarray:
        """Sample timestamps."""
        return np.asarray(self._times, dtype=np.float64)

    def values(self) -> np.ndarray:
        """Sample values."""
        return np.asarray(self._values, dtype=np.float64)

    def integral(self, until: float | None = None) -> float:
        """Integral of the step function from the first sample to ``until``."""
        if not self._times:
            return 0.0
        t = self.times()
        v = self.values()
        end = float(until) if until is not None else t[-1]
        if end < t[0]:
            return 0.0
        # widths between consecutive samples, last segment runs to `end`
        edges = np.append(t, end)
        widths = np.clip(np.diff(edges), 0.0, None)
        return float(np.dot(widths, v))

    def time_weighted_mean(self, until: float | None = None) -> float:
        """Time-weighted mean value over the observation window."""
        if not self._times:
            return 0.0
        t0 = self._times[0]
        end = float(until) if until is not None else self._times[-1]
        span = end - t0
        if span <= 0:
            return float(self._values[-1])
        return self.integral(until=end) / span
