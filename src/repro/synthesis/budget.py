"""Time-budget ranges and grids (paper Insight-1, Eq. 3).

The synthesizer explores "all potential runtime time budgets" between

    Tmin = sum_i L_i(P1,  Kmax)   (everything fast, maximum resources)
    Tmax = sum_i L_i(P99, Kmin)   (everything slow, minimum resources)

on a fine grid (1 ms in the paper). Budgets are represented as integral
milliseconds so table indices are exact.
"""

from __future__ import annotations

import math
import typing as _t
from dataclasses import dataclass

import numpy as np

from ..errors import SynthesisError
from ..knobs import INTEGER, at_least, check, knob
from ..profiling.profiles import LatencyProfile

__all__ = ["BudgetRange", "budget_range_for_chain"]


@dataclass(frozen=True)
class BudgetRange:
    """Inclusive integral budget range [tmin_ms, tmax_ms] with a step."""

    tmin_ms: int = knob(at_least(0))
    tmax_ms: int = knob(INTEGER)
    step_ms: int = knob(at_least(1), 1)

    def __post_init__(self) -> None:
        check(self, SynthesisError)
        if self.tmax_ms < self.tmin_ms:
            raise SynthesisError(
                f"tmax {self.tmax_ms} < tmin {self.tmin_ms}"
            )

    @property
    def num_budgets(self) -> int:
        """Number of grid points."""
        return (self.tmax_ms - self.tmin_ms) // self.step_ms + 1

    def grid(self) -> np.ndarray:
        """All budgets as ``int64`` milliseconds (ascending)."""
        return np.arange(
            self.tmin_ms, self.tmax_ms + 1, self.step_ms, dtype=np.int64
        )

    def contains(self, budget_ms: float) -> bool:
        """True when ``budget_ms`` falls inside the range."""
        return self.tmin_ms <= budget_ms <= self.tmax_ms

    def clamp(self, budget_ms: float) -> int:
        """Clip a budget into the range and snap down onto the grid."""
        b = min(max(budget_ms, self.tmin_ms), self.tmax_ms)
        return self.tmin_ms + int((b - self.tmin_ms) // self.step_ms) * self.step_ms


def budget_range_for_chain(
    profiles: _t.Sequence[LatencyProfile],
    concurrency: int = 1,
    step_ms: int = 1,
    low_percentile: float | None = None,
) -> BudgetRange:
    """Eq. 3 budget range for a chain of profiled functions.

    ``low_percentile`` defaults to the lowest percentile on the grid (P1).
    """
    if not profiles:
        raise SynthesisError("need at least one profile")
    grid = profiles[0].percentiles
    p_low = low_percentile if low_percentile is not None else grid.percentiles[0]
    tmin = sum(
        prof.latency(p_low, prof.limits.kmax, concurrency) for prof in profiles
    )
    tmax = sum(
        prof.latency(grid.anchor, prof.limits.kmin, concurrency)
        for prof in profiles
    )
    return BudgetRange(
        tmin_ms=int(math.floor(tmin)),
        tmax_ms=int(math.ceil(tmax)),
        step_ms=step_ms,
    )
