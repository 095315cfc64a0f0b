"""The developer-side profiler (paper §III-B).

The profiler "collects the execution time of functions under varying
resources (CPU cores) and concurrency levels (batch sizes) while extracting
execution time distribution by using different percentiles". Here the
measurements come from the parametric function models: for every (k, c)
grid point we draw ``samples`` independent invocations — exactly what a real
profiling campaign does against a test deployment — and take empirical
percentiles.

Sampling is fully vectorised (one ``rng`` batch per grid point) and the
resulting tables are projected onto the monotone cone to remove
finite-sample inversions (see :meth:`LatencyProfile.enforce_monotone`).
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass, field

import numpy as np

from ..errors import ProfileError
from ..functions.model import FunctionModel
from ..knobs import at_least, check, knob
from ..rng import RngFactory
from ..types import PercentileGrid, ResourceLimits
from ..workflow.catalog import Workflow
from .profiles import LatencyProfile, ProfileSet

__all__ = ["PROFILE_SAMPLES", "ProfilerConfig", "Profiler", "profile_workflow"]

#: Samples per grid point: at least 100 for stable percentiles (every
#: config that profiles declares its ``samples`` knob with this domain).
PROFILE_SAMPLES = at_least(100)

InterferenceSampler = _t.Callable[[np.random.Generator, int], np.ndarray]


def _no_interference(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.ones(n, dtype=np.float64)


@dataclass(frozen=True)
class ProfilerConfig:
    """Profiling campaign parameters.

    ``samples`` invocations per (k, c) grid point; 2000 keeps the P99
    estimate within a few percent for the noise levels of the calibrated
    models while the whole IA campaign stays under a second.
    """

    limits: ResourceLimits = field(default_factory=ResourceLimits)
    percentiles: PercentileGrid = field(default_factory=PercentileGrid)
    concurrencies: tuple[int, ...] = (1,)
    samples: int = knob(PROFILE_SAMPLES, 2000)
    enforce_monotone: bool = True

    def __post_init__(self) -> None:
        check(self, ProfileError)
        if not self.concurrencies or self.concurrencies[0] != 1:
            raise ProfileError(
                f"concurrencies must start at 1, got {self.concurrencies}"
            )


class Profiler:
    """Runs profiling campaigns against function models."""

    def __init__(
        self,
        config: ProfilerConfig | None = None,
        interference: InterferenceSampler | None = None,
    ) -> None:
        self.config = config or ProfilerConfig()
        self._interference = interference or _no_interference

    def profile_function(
        self,
        model: FunctionModel,
        rng: np.random.Generator,
    ) -> LatencyProfile:
        """Profile one function across the full (p, k, c) grid."""
        cfg = self.config
        # Non-batchable functions (paper §V-A: FE and ICO cannot process
        # frames in batch form) are measured at concurrency 1 for every
        # requested level so the table shape stays uniform across a workflow.
        k_grid = cfg.limits.grid()
        p_grid = cfg.percentiles.as_array()
        table = np.empty(
            (len(cfg.concurrencies), len(p_grid), len(k_grid)), dtype=np.float64
        )
        for ci, c in enumerate(cfg.concurrencies):
            effective_c = c if model.batchable else 1
            for ki, k in enumerate(k_grid):
                q = self._interference(rng, cfg.samples)
                samples = model.sample_execution_times(
                    int(k),
                    cfg.samples,
                    rng,
                    concurrency=effective_c,
                    interference=q,
                )
                table[ci, :, ki] = np.percentile(samples, p_grid)
        profile = LatencyProfile(
            function=model.name,
            percentiles=cfg.percentiles,
            limits=cfg.limits,
            concurrencies=cfg.concurrencies,
            table=table,
        )
        return profile.enforce_monotone() if cfg.enforce_monotone else profile

    def profile_models(
        self,
        models: _t.Iterable[FunctionModel],
        rng_factory: RngFactory,
    ) -> ProfileSet:
        """Profile several functions with independent random streams."""
        profiles = {
            m.name: self.profile_function(m, rng_factory.stream("profiler", m.name))
            for m in models
        }
        return ProfileSet(profiles)


def profile_workflow(
    workflow: Workflow,
    seed: int = 0,
    samples: int = 2000,
    concurrencies: tuple[int, ...] | None = None,
    percentiles: PercentileGrid | None = None,
    interference: InterferenceSampler | None = None,
) -> ProfileSet:
    """One-call profiling of every function in ``workflow``.

    ``concurrencies`` defaults to ``(1, ..., workflow.max_concurrency)``.
    Every DAG node is profiled (branching workflows execute
    off-critical-path functions too); chain-order functions come first so
    ``ProfileSet.functions()`` preserves the historical chain ordering.
    """
    if concurrencies is None:
        concurrencies = tuple(range(1, workflow.max_concurrency + 1))
    cfg = ProfilerConfig(
        limits=workflow.limits,
        percentiles=percentiles or PercentileGrid(),
        concurrencies=concurrencies,
        samples=samples,
    )
    profiler = Profiler(cfg, interference=interference)
    models = workflow.models_in_order()
    if workflow.topology == "dag":
        on_chain = set(workflow.chain)
        models += [
            workflow.functions[n]
            for n in workflow.dag.nodes
            if n not in on_chain
        ]
    return profiler.profile_models(
        models, RngFactory(seed).fork("profiling", workflow.name)
    )
