"""Working-set (input size) distributions.

Paper §II-B / §V-A: function inputs have widely varying sizes — COCO2014
images carry 1–15 objects, SQuAD2.0 passages span 35–641 words, and Azure
blob sizes span nine orders of magnitude. The samplers here reproduce those
published ranges so the execution-time model inherits the documented skew.

Each distribution exposes vectorised sampling (``sample``) plus a
``reference`` size used to normalise the workset factor in the performance
model. A vector draw equals the same number of scalar draws, so a stream
drawn from its own generator has the same values however it is chunked.
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


class WorksetDistribution(abc.ABC):
    """Interface for input working-set samplers."""

    @property
    @abc.abstractmethod
    def reference(self) -> float:
        """Reference (typical) working-set size used for normalisation."""

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw working-set size(s). Scalar when ``size`` is ``None``.

        ``size=n`` must equal ``n`` scalar calls, in values and in the
        state it leaves ``rng`` in: request streams draw each stage's
        working sets from a generator of their own, a chunk of any size
        at a time, and every chunking must replay the same stream.
        """

    @abc.abstractmethod
    def support(self) -> tuple[float, float]:
        """(lower, upper) bounds of possible sizes (may be infinite)."""


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

    def support(self) -> tuple[float, float]:
        return (0.0, float(self.clip_hi))
