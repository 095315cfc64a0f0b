"""Shared fixtures: small, fast workflows and profile sets.

Profiling campaigns are the slowest setup step, so session-scoped fixtures
share them across test modules. Tests needing custom profiles build their
own with reduced sample counts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.functions.model import FunctionModel, Resource
from repro.functions.worksets import FixedWorkset, LogUniformWorkset
from repro.profiling.profiler import Profiler, ProfilerConfig, profile_workflow
from repro.rng import RngFactory
from repro.synthesis.budget import BudgetRange
from repro.types import PercentileGrid, ResourceLimits
from repro.workflow.catalog import Workflow, intelligent_assistant, video_analytics
from repro.workflow.chain import chain_dag


def small_limits() -> ResourceLimits:
    return ResourceLimits(kmin=1000, kmax=3000, step=500)


def tiny_percentiles() -> PercentileGrid:
    return PercentileGrid(percentiles=(1.0, 25.0, 50.0, 75.0, 99.0), anchor=99.0)


def make_function(
    name: str = "F",
    serial: float = 50.0,
    parallel: float = 250.0,
    sigma: float = 0.1,
    gamma: float = 0.0,
    **kwargs,
) -> FunctionModel:
    workset = kwargs.pop("workset", None)
    if workset is None:
        workset = (
            LogUniformWorkset(10.0, 100.0) if gamma > 0 else FixedWorkset(1.0)
        )
    return FunctionModel(
        name=name,
        serial_ms=serial,
        parallel_ms=parallel,
        sigma=sigma,
        workset=workset,
        workset_gamma=gamma,
        **kwargs,
    )


def make_chain_workflow(
    n: int = 3, slo_ms: float = 1500.0, limits: ResourceLimits | None = None
) -> Workflow:
    models = [
        make_function(f"F{i}", serial=40 + 10 * i, parallel=200 + 20 * i,
                      sigma=0.08, gamma=0.2)
        for i in range(n)
    ]
    return Workflow(
        name=f"chain{n}",
        dag=chain_dag([m.name for m in models]),
        functions={m.name: m for m in models},
        slo_ms=slo_ms,
        limits=limits or small_limits(),
    )


@pytest.fixture(scope="session")
def small_workflow() -> Workflow:
    """A 3-function chain on a coarse grid (fast to profile/synthesize)."""
    return make_chain_workflow()


@pytest.fixture(scope="session")
def small_profiles(small_workflow):
    """Profiles for the small workflow (coarse grids, 600 samples)."""
    cfg = ProfilerConfig(
        limits=small_workflow.limits,
        percentiles=tiny_percentiles(),
        concurrencies=(1,),
        samples=600,
    )
    return Profiler(cfg).profile_models(
        small_workflow.models_in_order(), RngFactory(11).fork("tests")
    )


@pytest.fixture(scope="session")
def small_budget(small_profiles) -> BudgetRange:
    from repro.synthesis.budget import budget_range_for_chain

    return budget_range_for_chain(
        [small_profiles[f] for f in ("F0", "F1", "F2")]
    )


@pytest.fixture(scope="session")
def ia_workflow() -> Workflow:
    return intelligent_assistant()


@pytest.fixture(scope="session")
def ia_profiles(ia_workflow):
    """Full-grid IA profiles at a reduced sample count (shared)."""
    return profile_workflow(ia_workflow, seed=5, samples=800)


@pytest.fixture(scope="session")
def va_workflow() -> Workflow:
    return video_analytics()


@pytest.fixture(scope="session")
def va_profiles(va_workflow):
    return profile_workflow(va_workflow, seed=5, samples=800)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture()
def cli_error(capsys):
    """Run ``janus-repro argv`` and return the message of the one-line
    error it must fail with (exit status 1, no traceback)."""
    from repro.cli import main

    def run(argv: list[str]) -> str:
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        prefix = "janus-repro: error: "
        assert err.startswith(prefix) and err.count("\n") == 1, err
        return err[len(prefix):].rstrip("\n")

    return run
