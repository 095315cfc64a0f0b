"""Time-varying arrival rates: diurnal curves and the NHPP sampler.

Production serverless traffic is not stationary — the Azure Functions
trace behind the paper's Fig. 1a shows pronounced diurnal rate swings on
top of its Zipf popularity skew. This module models the rate side:

* :class:`DiurnalRate` — a deterministic rate curve ``rate(t)`` in
  requests/s, either sinusoidal (one smooth day/night swing) or
  piecewise-constant (explicit step schedule), both periodic.
* :func:`nhpp_arrivals` — samples a non-homogeneous Poisson process from
  any such curve by Lewis–Shedler thinning (candidates at the peak rate,
  each kept with probability ``rate(t) / peak``; see
  :mod:`repro.traces.arrivals`), bit-identically under a fixed seed.
"""

from __future__ import annotations

import math
import typing as _t
from dataclasses import dataclass, field

import numpy as np

from ..errors import TraceError
from ..knobs import FINITE, FRACTION, POSITIVE, UNIT, Domain, check, knob
from .arrivals import first_n, thinned

__all__ = [
    "RateCurve", "DiurnalRate", "FlashCrowdRate", "MAX_STORM_MULTIPLIER",
    "STORM_MULTIPLIER", "nhpp_arrivals",
]

#: The largest flash-crowd rate multiplier. Thinning draws about
#: ``multiplier`` candidates per arrival outside the storm window, so an
#: unbounded multiplier is an unbounded loop.
MAX_STORM_MULTIPLIER = 1000.0
#: The domain of every flash-crowd multiplier knob (a storm amplifies).
STORM_MULTIPLIER = Domain(1.0, MAX_STORM_MULTIPLIER, hi_open=False)

#: The numeric fields each curve kind consumes (the ones checked).
_KIND_FIELDS = {
    "sinusoid": ("period_s", "base_rate_per_s", "amplitude", "phase"),
    "piecewise": ("period_s", "phase"),
}


@_t.runtime_checkable
class RateCurve(_t.Protocol):
    """The shared surface of every periodic arrival-rate curve.

    :class:`DiurnalRate` and :class:`FlashCrowdRate` both satisfy it, so
    anything sampling arrivals (:func:`nhpp_arrivals`, fleet region
    sources) can accept either — or any future curve — without caring
    which. ``period_s`` may be a plain attribute or a property.
    """

    @property
    def period_s(self) -> float: ...

    def rate_at(self, t_s: "np.ndarray | float") -> np.ndarray: ...

    @property
    def peak_rate(self) -> float: ...


@dataclass(frozen=True)
class DiurnalRate:
    """A periodic arrival-rate curve ``rate(t_s)`` in requests/s.

    Build via :meth:`sinusoid` or :meth:`piecewise`; both wrap with period
    ``period_s`` so a cell can span any number of cycles.
    """

    kind: str
    period_s: float = knob(POSITIVE)
    #: Sinusoid parameters (ignored for piecewise curves).
    base_rate_per_s: float = knob(POSITIVE, 0.0)
    amplitude: float = knob(UNIT, 0.0)
    phase: float = knob(FINITE, 0.0)
    #: Piecewise steps ``((t0_s, rate0), (t1_s, rate1), ...)`` with
    #: ``t0 == 0`` and strictly ascending times below ``period_s``; each
    #: rate holds until the next breakpoint (the last until wrap-around).
    points: tuple[tuple[float, float], ...] = field(default=())

    def __post_init__(self) -> None:
        if self.kind not in _KIND_FIELDS:
            raise TraceError(f"unknown rate-curve kind {self.kind!r}")
        check(self, TraceError, _KIND_FIELDS[self.kind])
        if self.kind == "piecewise":
            if not self.points:
                raise TraceError("piecewise curve requires >= 1 breakpoint")
            times = [t for t, _ in self.points]
            rates = [r for _, r in self.points]
            if not all(map(math.isfinite, times + rates)):
                raise TraceError(f"breakpoints must be finite: {self.points}")
            if times[0] != 0.0:
                raise TraceError(
                    f"first breakpoint must start at t=0, got {times[0]}"
                )
            if any(b <= a for a, b in zip(times, times[1:])):
                raise TraceError(f"breakpoint times must ascend: {times}")
            if times[-1] >= self.period_s:
                raise TraceError(
                    f"breakpoints must lie below the period "
                    f"({times[-1]} >= {self.period_s})"
                )
            if any(r < 0 for r in rates) or max(rates) <= 0:
                raise TraceError(
                    f"rates must be >= 0 with a positive peak: {rates}"
                )

    # -- constructors -------------------------------------------------------
    @classmethod
    def sinusoid(
        cls,
        base_rate_per_s: float,
        amplitude: float = 0.6,
        period_s: float = 3600.0,
        phase: float = 0.0,
    ) -> "DiurnalRate":
        """``base * (1 + amplitude * sin(2*pi*t/period + phase))``."""
        return cls(
            kind="sinusoid",
            period_s=float(period_s),
            base_rate_per_s=float(base_rate_per_s),
            amplitude=float(amplitude),
            phase=float(phase),
        )

    @classmethod
    def piecewise(
        cls,
        points: _t.Sequence[tuple[float, float]],
        period_s: float | None = None,
    ) -> "DiurnalRate":
        """Step schedule; the period defaults to twice the last breakpoint.

        With ``points=((0, 10), (300, 80))`` and ``period_s=600`` the rate
        is 10/s for the first five minutes of every ten, 80/s after.
        """
        pts = tuple((float(t), float(r)) for t, r in points)
        if period_s is None:
            period_s = 2.0 * pts[-1][0] if len(pts) > 1 else 1.0
        return cls(kind="piecewise", period_s=float(period_s), points=pts)

    # -- evaluation ---------------------------------------------------------
    def rate_at(self, t_s: "np.ndarray | float") -> np.ndarray:
        """Instantaneous rate (requests/s) at time(s) ``t_s`` (vectorised)."""
        t = np.asarray(t_s, dtype=np.float64)
        if self.kind == "sinusoid":
            return self.base_rate_per_s * (
                1.0
                + self.amplitude
                * np.sin(2.0 * np.pi * t / self.period_s + self.phase)
            )
        wrapped = np.mod(t, self.period_s)
        times = np.array([p[0] for p in self.points])
        rates = np.array([p[1] for p in self.points])
        idx = np.searchsorted(times, wrapped, side="right") - 1
        return rates[idx]

    @property
    def peak_rate(self) -> float:
        """The curve's maximum rate — the thinning envelope."""
        if self.kind == "sinusoid":
            return self.base_rate_per_s * (1.0 + self.amplitude)
        return max(r for _, r in self.points)

    @property
    def mean_rate(self) -> float:
        """Time-averaged rate over one period."""
        if self.kind == "sinusoid":
            return self.base_rate_per_s  # the sine integrates to zero
        times = [p[0] for p in self.points] + [self.period_s]
        spans = np.diff(times)
        rates = np.array([p[1] for p in self.points])
        return float(np.dot(spans, rates) / self.period_s)

    def peak_time_s(self) -> float:
        """Where the curve peaks within one period (analytic, no search)."""
        if self.kind == "sinusoid":
            # sin(2*pi*t/P + phase) = 1  =>  t = P * (pi/2 - phase) / 2*pi
            return float(
                (self.period_s * (0.5 * np.pi - self.phase) / (2.0 * np.pi))
                % self.period_s
            )
        t_max, _ = max(self.points, key=lambda p: p[1])
        return float(t_max)


@dataclass(frozen=True)
class FlashCrowdRate:
    """A rate curve with a flash-crowd window around its daily peak.

    Models the cold-start-storm scenario: traffic follows ``base``, except
    during a window of ``window_fraction`` of the period centred on the
    base curve's peak, where the rate is multiplied by ``multiplier`` —
    a viral event landing on top of the busy hour. The window repeats
    every period. Both this class and its base satisfy :class:`RateCurve`,
    so storms compose over any curve (phase-offset fleet regions
    included), not just :class:`DiurnalRate`.
    """

    base: RateCurve
    multiplier: float = knob(STORM_MULTIPLIER)
    window_fraction: float = knob(FRACTION)

    def __post_init__(self) -> None:
        check(self, TraceError)

    @property
    def period_s(self) -> float:
        return self.base.period_s

    def peak_time_s(self) -> float:
        """Window centre: where the base curve peaks within one period.

        Curves exposing their own ``peak_time_s`` (like
        :class:`DiurnalRate`, analytically) are asked directly; anything
        else falls back to a deterministic fixed-grid argmax, so any
        :class:`RateCurve` can carry a storm.
        """
        peak_time = getattr(self.base, "peak_time_s", None)
        if callable(peak_time):
            return float(peak_time())
        period = self.base.period_s
        grid = np.linspace(0.0, period, 4096, endpoint=False)
        return float(grid[int(np.argmax(self.base.rate_at(grid)))])

    def rate_at(self, t_s: "np.ndarray | float") -> np.ndarray:
        """Base rate, multiplied inside the periodic storm window."""
        t = np.asarray(t_s, dtype=np.float64)
        rates = self.base.rate_at(t)
        period = self.base.period_s
        offset = np.mod(t - self.peak_time_s() + 0.5 * period, period) - (
            0.5 * period
        )
        half_window = 0.5 * self.window_fraction * period
        return np.where(
            np.abs(offset) <= half_window, rates * self.multiplier, rates
        )

    @property
    def peak_rate(self) -> float:
        """Thinning envelope: the base peak amplified by the storm."""
        return self.base.peak_rate * self.multiplier


def nhpp_arrivals(
    curve: RateCurve, n: int, rng: np.random.Generator
) -> np.ndarray:
    """``n`` arrival timestamps (ms) of the NHPP with rate ``curve``, by
    the thinning diurnal and storm specs use too
    (:func:`repro.traces.arrivals.thinned`)."""
    return first_n(thinned(curve, rng, n), n)
