"""Working-set (input size) distributions.

Paper §II-B / §V-A: function inputs have widely varying sizes — COCO2014
images carry 1–15 objects, SQuAD2.0 passages span 35–641 words, and Azure
blob sizes span nine orders of magnitude. The samplers here reproduce those
published ranges so the execution-time model inherits the documented skew.

Each distribution exposes vectorised sampling (``sample``) plus a
``reference`` size used to normalise the workset factor in the performance
model.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from ..errors import FunctionModelError
from ..knobs import INTEGER, NON_NEGATIVE, POSITIVE, Domain, at_least, check, knob

__all__ = [
    "WorksetDistribution",
    "FixedWorkset",
    "UniformIntWorkset",
    "LogUniformWorkset",
    "LognormalWorkset",
]


#: ``n`` invocations' (worksets, noise draws), each ``float64[n]``.
Draws = tuple[np.ndarray, np.ndarray]


class WorksetDistribution(abc.ABC):
    """Interface for input working-set samplers."""

    @property
    @abc.abstractmethod
    def reference(self) -> float:
        """Reference (typical) working-set size used for normalisation."""

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw working-set size(s). Scalar when ``size`` is ``None``."""

    @abc.abstractmethod
    def support(self) -> tuple[float, float]:
        """(lower, upper) bounds of possible sizes (may be infinite)."""

    def sample_with_noise(self, rng: np.random.Generator, n: int) -> Draws:
        """Bit for bit, and generator state for state, ``n`` alternating
        scalar ``sample(rng)`` / ``rng.standard_normal()`` calls. This loop
        is exact for any subclass; the built-in ones draw cheaper."""
        sample, normal = self.sample, rng.standard_normal
        return _columns([(sample(rng), normal()) for _ in range(n)], n)


@dataclass(frozen=True)
class FixedWorkset(WorksetDistribution):
    """Degenerate distribution: every invocation sees the same input size."""

    value: float = knob(POSITIVE, 1.0)

    def __post_init__(self) -> None:
        check(self, FunctionModelError)

    @property
    def reference(self) -> float:
        return self.value

    def sample(self, rng: np.random.Generator, size: int | None = None):
        if size is None:
            return self.value
        return np.full(size, self.value, dtype=np.float64)

    def sample_with_noise(self, rng: np.random.Generator, n: int) -> Draws:
        # No workset draw: the noise draws are consecutive normals.
        return np.full(n, self.value, dtype=np.float64), rng.standard_normal(n)

    def support(self) -> tuple[float, float]:
        return (self.value, self.value)


@dataclass(frozen=True)
class UniformIntWorkset(WorksetDistribution):
    """Uniform integer sizes in [lo, hi] (e.g. objects per COCO image)."""

    lo: int = knob(at_least(1))
    hi: int = knob(INTEGER)

    def __post_init__(self) -> None:
        check(self, FunctionModelError)
        if self.hi < self.lo:
            raise FunctionModelError(f"invalid range [{self.lo}, {self.hi}]")

    @property
    def reference(self) -> float:
        return (self.lo + self.hi) / 2.0

    def sample(self, rng: np.random.Generator, size: int | None = None):
        draw = rng.integers(self.lo, self.hi + 1, size=size)
        if size is None:
            return float(draw)
        return draw.astype(np.float64)

    def sample_with_noise(self, rng: np.random.Generator, n: int) -> Draws:
        # ``integers`` takes 32-bit halves through the bit generator's
        # buffer: no vector call interleaves its draws with the normals.
        integers, normal = rng.integers, rng.standard_normal
        lo, high = self.lo, self.hi + 1
        return _columns([(integers(lo, high), normal()) for _ in range(n)], n)

    def support(self) -> tuple[float, float]:
        return (float(self.lo), float(self.hi))


@dataclass(frozen=True)
class LogUniformWorkset(WorksetDistribution):
    """Log-uniform sizes in [lo, hi] (e.g. words per SQuAD passage).

    Log-uniform matches the long-tailed but bounded spread of text lengths:
    most passages are short, a few are near the maximum.
    """

    lo: float = knob(POSITIVE)
    hi: float = knob(POSITIVE)

    def __post_init__(self) -> None:
        check(self, FunctionModelError)
        if self.hi <= self.lo:
            raise FunctionModelError(f"invalid range [{self.lo}, {self.hi}]")

    @property
    def reference(self) -> float:
        # geometric midpoint — the median of a log-uniform distribution
        return float(np.sqrt(self.lo * self.hi))

    def sample(self, rng: np.random.Generator, size: int | None = None):
        u = rng.uniform(np.log(self.lo), np.log(self.hi), size=size)
        out = np.exp(u)
        if size is None:
            return float(out)
        return out

    def sample_with_noise(self, rng: np.random.Generator, n: int) -> Draws:
        # A normal may take extra 64-bit words, so the uniforms are drawn
        # in a loop; ``lo + (hi - lo) * r`` is ``uniform``'s own formula.
        random, normal = rng.random, rng.standard_normal
        r, z = _columns([(random(), normal()) for _ in range(n)], n)
        lo, hi = np.log(self.lo), np.log(self.hi)
        return np.exp(lo + (hi - lo) * r), z

    def support(self) -> tuple[float, float]:
        return (float(self.lo), float(self.hi))


@dataclass(frozen=True)
class LognormalWorkset(WorksetDistribution):
    """Lognormal sizes (e.g. video/blob sizes with heavy upper tail)."""

    median: float = knob(POSITIVE)
    sigma: float = knob(NON_NEGATIVE)
    #: ``inf`` leaves the upper tail unclipped.
    clip_hi: float = knob(Domain(lo=0.0, hi_open=False), float("inf"))

    def __post_init__(self) -> None:
        check(self, FunctionModelError)
        if self.clip_hi <= self.median:
            raise FunctionModelError(
                f"clip_hi {self.clip_hi} must exceed median {self.median}"
            )

    @property
    def reference(self) -> float:
        return self.median

    def sample(self, rng: np.random.Generator, size: int | None = None):
        z = rng.standard_normal(size=size)
        out = np.minimum(self.median * np.exp(self.sigma * z), self.clip_hi)
        if size is None:
            return float(out)
        return out

    def sample_with_noise(self, rng: np.random.Generator, n: int) -> Draws:
        # Both draws are normals: even positions are worksets, odd noise.
        z = rng.standard_normal(2 * n)
        out = np.minimum(self.median * np.exp(self.sigma * z[0::2]), self.clip_hi)
        return out, z[1::2].copy()

    def support(self) -> tuple[float, float]:
        return (0.0, float(self.clip_hi))


def _columns(draws: list, n: int) -> Draws:
    """Interleaved (workset, noise) pairs as two contiguous columns."""
    table = np.array(draws, dtype=np.float64).reshape(n, 2)
    return table[:, 0].copy(), table[:, 1].copy()
