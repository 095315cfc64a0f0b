"""Parametric execution-time model for serverless functions.

The paper's algorithms consume only a function's latency *distribution*
``L(p, k, c)`` (percentile x CPU size x concurrency). We therefore replace
the real OD/QA/TS/FE/ICL/ICO containers with a calibrated generative model
whose structure mirrors the paper's observed runtime dynamics (§II-B):

``t = (serial + parallel * 1000/k) * (w / w_ref)^gamma * batch(c) * q * e^(sigma z)``

* **Amdahl scaling** — ``serial`` ms of non-parallelisable work plus
  ``parallel`` ms measured at 1000 millicores that shrinks inversely with the
  allocation ``k`` (diminishing returns, paper Fig. 7b).
* **Working-set factor** — input size ``w`` drawn from the function's workset
  distribution, scaled by power law exponent ``gamma`` (paper Fig. 1b).
* **Batching** — per-request time inflates by ``1 + eta * (c - 1)`` for a
  batch of ``c`` (GrandSLAM-style batching; non-batchable functions reject
  ``c > 1``).
* **Interference** — multiplicative slowdown ``q >= 1`` supplied by the
  platform's co-location model (paper Fig. 1c).
* **Residual noise** — lognormal with log-std ``sigma`` capturing everything
  else (JIT, caching, scheduling jitter).

The per-invocation randomness is captured in an :class:`InvocationDynamics`
value *before* execution, so the same request can be replayed under any
allocation — this is what makes the Optimal oracle and common-random-number
policy comparisons possible.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import FunctionModelError
from ..knobs import NON_NEGATIVE, at_least, check, knob
from ..types import Millicores
from .worksets import FixedWorkset, WorksetDistribution

__all__ = ["Resource", "InvocationDynamics", "FunctionModel", "check_dynamics"]

_REFERENCE_MILLICORES = 1000.0


class Resource(enum.Enum):
    """Dominant resource dimension of a function (drives interference)."""

    CPU = "cpu"
    MEMORY = "memory"
    IO = "io"
    NETWORK = "network"


@dataclass(frozen=True)
class InvocationDynamics:
    """The random state of one invocation, fixed before execution.

    Attributes
    ----------
    workset:
        Input working-set size ``w``.
    noise_z:
        Standard-normal draw for the residual lognormal noise.
    interference:
        Multiplicative slowdown ``q >= 1`` from co-location.
    """

    workset: float
    noise_z: float
    interference: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.workset < math.inf:
            raise FunctionModelError(f"workset must be finite and > 0: {self.workset}")
        if self.interference < 1.0:
            raise FunctionModelError(
                f"interference must be >= 1: {self.interference}"
            )


def check_dynamics(worksets: np.ndarray, interferences: np.ndarray) -> None:
    """:class:`InvocationDynamics`' checks, predicates and messages over
    columns, one invocation per element (``(requests,)`` or ``(requests,
    stages)``): the first invocation in row-major order that a row would
    reject raises, its workset checked before its interference."""
    bad_workset = ~((worksets > 0.0) & (worksets < math.inf))
    bad = bad_workset | (interferences < 1.0)
    if bad.any():
        first = int(np.argmax(bad))
        if bad_workset.flat[first]:
            value = float(worksets.flat[first])
            raise FunctionModelError(f"workset must be finite and > 0: {value}")
        value = float(interferences.flat[first])
        raise FunctionModelError(f"interference must be >= 1: {value}")


@dataclass(frozen=True)
class FunctionModel:
    """A serverless function's performance model and metadata."""

    name: str
    serial_ms: float = knob(NON_NEGATIVE)
    parallel_ms: float = knob(NON_NEGATIVE)
    sigma: float = knob(NON_NEGATIVE, 0.15)
    workset: WorksetDistribution = field(default_factory=FixedWorkset)
    workset_gamma: float = knob(NON_NEGATIVE, 0.0)
    batch_eta: float = knob(NON_NEGATIVE, 0.35)
    batchable: bool = True
    dominant_resource: Resource = Resource.CPU
    cold_start_ms: float = knob(NON_NEGATIVE, 500.0)
    memory_mb: int = knob(at_least(1), 512)

    def __post_init__(self) -> None:
        if not self.name:
            raise FunctionModelError("function name may not be empty")
        check(self, FunctionModelError)
        if self.serial_ms + self.parallel_ms <= 0:
            raise FunctionModelError(f"{self.name}: total work must be > 0")

    # -- deterministic pieces ---------------------------------------------
    def base_time(self, k: Millicores) -> float:
        """Noise-free time (ms) at allocation ``k`` for the reference input."""
        if k <= 0:
            raise FunctionModelError(f"{self.name}: millicores must be > 0, got {k}")
        return self.serial_ms + self.parallel_ms * (_REFERENCE_MILLICORES / k)

    def workset_factor(self, workset: float) -> float:
        """Power-law input-size multiplier ``(w / w_ref)^gamma``."""
        if self.workset_gamma == 0.0:
            return 1.0
        return float((workset / self.workset.reference) ** self.workset_gamma)

    def batch_factor(self, concurrency: int) -> float:
        """Multiplier for processing a batch of ``concurrency`` requests."""
        if concurrency < 1:
            raise FunctionModelError(
                f"{self.name}: concurrency must be >= 1, got {concurrency}"
            )
        if concurrency > 1 and not self.batchable:
            raise FunctionModelError(
                f"{self.name}: function is not batchable (concurrency={concurrency})"
            )
        return 1.0 + self.batch_eta * (concurrency - 1)

    # -- sampling -----------------------------------------------------------
    def sample_dynamics(
        self,
        workset_rng: np.random.Generator,
        noise_rng: np.random.Generator,
        size: int,
        interference: "float | np.ndarray" = 1.0,
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """The checked ``(worksets, noise_zs, interferences)`` columns of
        ``size`` invocations: one vector draw from each generator. Request
        streams give each stage a workset and a noise generator of its
        own, so the columns do not depend on how a stream is chunked."""
        worksets = np.asarray(
            self.workset.sample(workset_rng, size=size), dtype=np.float64
        )
        noise_zs = noise_rng.standard_normal(size)
        interferences = np.full(size, interference, dtype=np.float64)
        check_dynamics(worksets, interferences)
        return worksets, noise_zs, interferences

    def execution_time(
        self,
        k: Millicores,
        dynamics: InvocationDynamics,
        concurrency: int = 1,
    ) -> float:
        """Execution time (ms) of the invocation under allocation ``k``.

        Deterministic given ``dynamics``: larger ``k`` strictly reduces the
        time whenever the function has parallel work.
        """
        return (
            self.base_time(k)
            * self.workset_factor(dynamics.workset)
            * self.batch_factor(concurrency)
            * dynamics.interference
            * float(np.exp(self.sigma * dynamics.noise_z))
        )

    # -- batched evaluation (vectorised executor hot path) ------------------
    def workset_factors(self, worksets: np.ndarray) -> np.ndarray:
        """Array of ``workset_factor`` values, bit-identical to the scalar.

        ``x ** gamma`` is evaluated with Python's ``float.__pow__`` per
        element: ``np.power`` uses a different algorithm and diverges from
        the scalar path in the last ulp for a few percent of inputs, which
        would break the bit-exact replay contract. Any shape is kept.
        """
        worksets = np.asarray(worksets, dtype=np.float64)
        if self.workset_gamma == 0.0:
            return np.ones(worksets.shape, dtype=np.float64)
        ratios = (worksets / self.workset.reference).ravel().tolist()
        factors = map(pow, ratios, itertools.repeat(self.workset_gamma))
        return np.fromiter(factors, np.float64, worksets.size).reshape(worksets.shape)

    def batch_factors(self, concurrencies: np.ndarray) -> np.ndarray:
        """Vector of ``batch_factor`` values, bit-identical to the scalar."""
        concurrencies = np.asarray(concurrencies, dtype=np.int64)
        if concurrencies.size and int(concurrencies.min()) < 1:
            bad = int(concurrencies[concurrencies < 1][0])
            raise FunctionModelError(
                f"{self.name}: concurrency must be >= 1, got {bad}"
            )
        if not self.batchable and concurrencies.size and int(concurrencies.max()) > 1:
            bad = int(concurrencies[concurrencies > 1][0])
            raise FunctionModelError(
                f"{self.name}: function is not batchable (concurrency={bad})"
            )
        return 1.0 + self.batch_eta * (concurrencies - 1)

    def execution_times(
        self,
        ks: np.ndarray,
        worksets: np.ndarray,
        noise_zs: np.ndarray,
        interferences: np.ndarray,
        concurrencies: np.ndarray,
    ) -> np.ndarray:
        """Batched :meth:`execution_time` over broadcastable arrays.

        Factor order matches the scalar product exactly (base * workset *
        batch * interference * noise, left-associative), so each element is
        bit-identical to the corresponding scalar call. Per-invocation
        columns (``(R, 1)``) against a ``(K,)`` size grid give ``(R, K)``
        times while computing each invocation's factors once.
        """
        ks = np.asarray(ks, dtype=np.int64)
        if ks.size and int(ks.min()) <= 0:
            bad = int(ks[ks <= 0][0])
            raise FunctionModelError(
                f"{self.name}: millicores must be > 0, got {bad}"
            )
        base = self.serial_ms + self.parallel_ms * (_REFERENCE_MILLICORES / ks)
        return (
            base
            * self.workset_factors(worksets)
            * self.batch_factors(concurrencies)
            * np.asarray(interferences, dtype=np.float64)
            * np.exp(self.sigma * np.asarray(noise_zs, dtype=np.float64))
        )

    def sample_execution_times(
        self,
        k: Millicores,
        n: int,
        rng: np.random.Generator,
        concurrency: int = 1,
        interference: np.ndarray | float = 1.0,
    ) -> np.ndarray:
        """Vectorised sampling of ``n`` execution times (profiling hot path)."""
        if n <= 0:
            raise FunctionModelError(f"sample count must be > 0, got {n}")
        w = np.asarray(self.workset.sample(rng, size=n), dtype=np.float64)
        z = rng.standard_normal(n)
        q = np.broadcast_to(np.asarray(interference, dtype=np.float64), (n,))
        if np.any(q < 1.0):
            raise FunctionModelError("interference must be >= 1")
        ws = (
            (w / self.workset.reference) ** self.workset_gamma
            if self.workset_gamma != 0.0
            else 1.0
        )
        return (
            self.base_time(k)
            * self.batch_factor(concurrency)
            * ws
            * q
            * np.exp(self.sigma * z)
        )
