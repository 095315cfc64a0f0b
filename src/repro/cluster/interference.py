"""Co-location interference model (paper §II-B, Fig. 1c).

Commercial platforms pack instances of the *same* function onto shared VMs
(65% of Alibaba Function Compute VMs host a single function [35]), which
contends on the function's dominant resource. The paper measures slowdowns
up to 8.1x at six co-located instances, ordered
CPU < memory < IO < network.

We model the slowdown as ``1 + a_r * (n - 1)^b_r`` for ``n`` co-located
instances of dominant resource ``r``. Coefficients are calibrated so that
``n = 6`` lands near the paper's measured endpoints (~1.6x CPU, ~3.5x
memory, ~5.5x IO, ~8.1x network).
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass, field

import numpy as _np

from ..errors import ClusterError
from ..knobs import NON_NEGATIVE, POSITIVE, check, knob
from ..functions.model import Resource

__all__ = ["InterferenceModel", "DEFAULT_COEFFICIENTS"]


@dataclass(frozen=True)
class _Coeff:
    a: float = knob(NON_NEGATIVE)
    b: float = knob(POSITIVE)

    def __post_init__(self) -> None:
        check(self, ClusterError)


DEFAULT_COEFFICIENTS: dict[Resource, _Coeff] = {
    Resource.CPU: _Coeff(a=0.12, b=1.0),  # 1.60x at n=6
    Resource.MEMORY: _Coeff(a=0.50, b=1.0),  # 3.50x at n=6
    Resource.IO: _Coeff(a=0.90, b=1.0),  # 5.50x at n=6
    Resource.NETWORK: _Coeff(a=1.42, b=1.0),  # 8.10x at n=6
}


@dataclass(frozen=True)
class InterferenceModel:
    """Maps (dominant resource, co-located count) to a slowdown factor."""

    coefficients: dict[Resource, _Coeff] = field(
        default_factory=lambda: dict(DEFAULT_COEFFICIENTS)
    )

    def slowdown(self, resource: Resource, colocated: int) -> float:
        """Multiplicative slowdown for ``colocated`` same-function instances.

        ``colocated`` counts all instances on the VM including the one being
        measured; 1 (alone) means no interference.
        """
        if colocated < 1:
            raise ClusterError(f"colocated count must be >= 1, got {colocated}")
        try:
            c = self.coefficients[resource]
        except KeyError:
            raise ClusterError(f"no interference coefficients for {resource}")
        return 1.0 + c.a * float(colocated - 1) ** c.b

    def cross_slowdown(
        self,
        resource: Resource,
        same: int,
        other: int,
        scale: float = 0.5,
    ) -> float:
        """Slowdown with cross-function neighbours on the same resource.

        Beyond the paper's same-function packing, co-located pods of
        *different* functions whose dominant resource matches also contend
        — just less tightly (they rarely hit the same phase). ``same``
        counts same-function instances including the one measured,
        ``other`` counts busy other-function instances dominated by the
        same resource, and ``scale`` weighs one such neighbour against a
        same-function one: the effective count becomes
        ``same + scale * other``, fed through the calibrated curve. With
        ``other = 0`` this reduces exactly to :meth:`slowdown`.
        """
        if same < 1:
            raise ClusterError(f"same-function count must be >= 1, got {same}")
        if other < 0:
            raise ClusterError(f"other-function count must be >= 0, got {other}")
        if scale < 0:
            raise ClusterError(f"contention scale must be >= 0, got {scale}")
        try:
            c = self.coefficients[resource]
        except KeyError:
            raise ClusterError(f"no interference coefficients for {resource}")
        effective = float(same) + scale * float(other) - 1.0
        return 1.0 + c.a * effective**c.b

    def curve(self, resource: Resource, max_colocated: int = 6) -> list[float]:
        """Slowdowns for 1..max_colocated instances (Fig. 1c series)."""
        return [self.slowdown(resource, n) for n in range(1, max_colocated + 1)]

    def profiling_sampler(
        self,
        resource: Resource,
        colocation_probs: _t.Mapping[int, float],
    ):
        """Sampler of interference factors for platform-aware profiling.

        The paper's developer profiles functions *on the serverless
        platform*, so the measured distributions already include typical
        co-location effects. ``colocation_probs`` maps co-located-instance
        counts to probabilities (e.g. ``{1: 0.5, 2: 0.3, 3: 0.2}``); the
        returned callable plugs into
        :class:`~repro.profiling.profiler.Profiler` as its interference
        source.
        """
        counts = sorted(colocation_probs)
        probs = _np.asarray([colocation_probs[c] for c in counts], dtype=float)
        if counts and counts[0] < 1:
            raise ClusterError("co-location counts must be >= 1")
        if probs.size == 0 or not _np.isclose(probs.sum(), 1.0):
            raise ClusterError(
                f"co-location probabilities must sum to 1, got {probs.sum()}"
            )
        factors = _np.asarray(
            [self.slowdown(resource, c) for c in counts], dtype=float
        )

        def sample(rng: _np.random.Generator, n: int) -> _np.ndarray:
            idx = rng.choice(len(counts), size=n, p=probs)
            return factors[idx]

        return sample
