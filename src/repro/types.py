"""Shared value types used across subsystems.

These are deliberately small frozen dataclasses: they cross subsystem
boundaries (profiler -> synthesizer -> adapter) and benefit from being
hashable and immutable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .knobs import Domain, at_least, check, knob

__all__ = [
    "Millicores",
    "Milliseconds",
    "ResourceLimits",
    "PercentileGrid",
    "DEFAULT_PERCENTILES",
]

#: CPU allocation expressed in millicores (1000 = one core).
Millicores = int

#: Durations and budgets, in milliseconds.
Milliseconds = float


@dataclass(frozen=True)
class ResourceLimits:
    """Allowed CPU sizes for a function instance.

    Mirrors the paper's testbed: functions may be sized from ``kmin`` to
    ``kmax`` millicores in multiples of ``step`` (default 1000..3000 step
    100).
    """

    kmin: Millicores = knob(at_least(1), 1000)
    kmax: Millicores = knob(at_least(1), 3000)
    step: Millicores = knob(at_least(1), 100)

    def __post_init__(self) -> None:
        check(self, ConfigError)
        if self.kmin > self.kmax:
            raise ConfigError(f"kmin {self.kmin} > kmax {self.kmax}")
        if (self.kmax - self.kmin) % self.step != 0:
            raise ConfigError(
                f"kmax - kmin ({self.kmax - self.kmin}) must be a multiple "
                f"of step ({self.step})"
            )

    @property
    def num_options(self) -> int:
        """Number of discrete sizes in the grid."""
        return (self.kmax - self.kmin) // self.step + 1

    def grid(self) -> np.ndarray:
        """All permissible sizes as an ``int64`` array (ascending)."""
        return np.arange(self.kmin, self.kmax + self.step, self.step, dtype=np.int64)

    def clamp(self, k: Millicores) -> Millicores:
        """Snap ``k`` onto the grid (round to nearest step, clip to range)."""
        snapped = self.kmin + round((k - self.kmin) / self.step) * self.step
        return int(min(self.kmax, max(self.kmin, snapped)))

    def contains(self, k: Millicores) -> bool:
        """True when ``k`` is exactly one of the grid sizes."""
        return (
            self.kmin <= k <= self.kmax and (k - self.kmin) % self.step == 0
        )

    def clamp_array(self, ks: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`clamp` (``np.rint`` rounds half-to-even like
        Python's ``round``, so each element matches the scalar exactly)."""
        ks = np.asarray(ks, dtype=np.float64)
        snapped = self.kmin + np.rint((ks - self.kmin) / self.step) * self.step
        return np.clip(snapped, self.kmin, self.kmax).astype(np.int64)

    def contains_array(self, ks: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`contains` — boolean mask over ``ks``."""
        ks = np.asarray(ks, dtype=np.int64)
        return (
            (ks >= self.kmin)
            & (ks <= self.kmax)
            & ((ks - self.kmin) % self.step == 0)
        )


def _default_percentiles() -> tuple[float, ...]:
    # Paper §III-B: "percentiles ranging from 1% to 99% with a step of 5%".
    # We take 1, 5, 10, ..., 95 plus the P99 anchor used for SLO math.
    return (1.0,) + tuple(float(p) for p in range(5, 100, 5)) + (99.0,)


DEFAULT_PERCENTILES: tuple[float, ...] = _default_percentiles()


@dataclass(frozen=True)
class PercentileGrid:
    """Ordered set of percentiles used by the profiler and synthesizer.

    Always contains the anchor percentile (P99 by default) used for SLO
    calculations; the anchor can be raised (e.g. 99.9) for stricter SLOs as
    described in paper §III-B.
    """

    percentiles: tuple[float, ...] = knob(
        Domain(0.0, 100.0), DEFAULT_PERCENTILES, each=True
    )
    anchor: float = knob(Domain(0.0, 100.0), 99.0)

    def __post_init__(self) -> None:
        check(self, ConfigError)
        ps = tuple(float(p) for p in self.percentiles)
        if not ps:
            raise ConfigError("percentile grid may not be empty")
        if tuple(sorted(ps)) != ps:
            raise ConfigError("percentiles must be strictly ascending")
        if len(set(ps)) != len(ps):
            raise ConfigError("percentiles must be unique")
        if self.anchor not in ps:
            raise ConfigError(
                f"anchor percentile {self.anchor} must be in the grid"
            )
        object.__setattr__(self, "percentiles", ps)

    def __len__(self) -> int:
        return len(self.percentiles)

    def __iter__(self):
        return iter(self.percentiles)

    def index_of(self, p: float) -> int:
        """Index of percentile ``p`` in the grid (exact match required)."""
        try:
            return self.percentiles.index(float(p))
        except ValueError:
            raise ConfigError(f"percentile {p} not in grid {self.percentiles}")

    @property
    def anchor_index(self) -> int:
        """Index of the anchor (SLO) percentile."""
        return self.index_of(self.anchor)

    def below_anchor(self) -> tuple[float, ...]:
        """Percentiles strictly below the anchor (candidates for heads)."""
        return tuple(p for p in self.percentiles if p < self.anchor)

    def as_array(self) -> np.ndarray:
        """Grid as a float64 array."""
        return np.asarray(self.percentiles, dtype=np.float64)
