"""The ORION plan memo: one live build per distinct input, shared on disk.

A plan is a pure function of the workflow name and chain, the chain's
profiles, concurrency, the resolved SLO, ``mc_samples``, ``seed``, the
resolved target percentile and the safety margin. Each of them alone must
miss; a memory hit and a disk hit must hand back the live build's plan and
``e2e_p99_ms`` bits; an infeasible SLO must raise every time and store
nothing; and a sweep must build each distinct plan once.
"""

from __future__ import annotations

import dataclasses
import shutil

import numpy as np
import pytest

from repro.errors import PolicyError
from repro.policies.orion import (
    OrionPolicy,
    clear_orion_cache,
    orion_cache_dir,
    orion_cache_stats,
    set_orion_cache_dir,
)
from repro.profiling.profiles import LatencyProfile, ProfileSet
from repro.scenarios import ScenarioMatrix, SweepRunner
from repro.scenarios.matrix import parse_arrival
from repro.types import PercentileGrid, ResourceLimits
from tests.conftest import make_chain_workflow
from tests.test_orion import real_case

LIMITS = ResourceLimits(kmin=100, kmax=1000, step=100)
GRID = PercentileGrid(percentiles=(10.0, 50.0, 99.0), anchor=99.0)
#: Knobs of the reference build; every variant changes exactly one.
BASE = dict(
    concurrency=1, slo_ms=900.0, mc_samples=200, seed=7,
    target_percentile=None, safety_margin=0.1,
)


def synthetic_profiles(bump: float = 1.0) -> ProfileSet:
    """Three monotone two-concurrency profiles; ``bump`` scales F1 only."""
    k = np.arange(LIMITS.num_options)
    p = np.arange(len(GRID.percentiles))[:, None]
    profiles = {}
    for i in range(3):
        plane = (200.0 + 50.0 * i) * (1.0 + 0.3 * p) / (1.0 + 0.2 * k)
        if i == 1:
            plane = plane * bump
        table = np.stack([plane, 1.5 * plane])
        profiles[f"F{i}"] = LatencyProfile(f"F{i}", GRID, LIMITS, (1, 2), table)
    return ProfileSet(profiles)


@pytest.fixture(autouse=True)
def cold_memo():
    saved = orion_cache_dir()
    set_orion_cache_dir(None)
    clear_orion_cache()
    yield
    clear_orion_cache()
    set_orion_cache_dir(saved)


def builds() -> int:
    return orion_cache_stats()["builds"]


def since(start: dict[str, int]) -> dict[str, int]:
    """Counter deltas since ``start`` (the counters are process-wide)."""
    return {name: n - start[name] for name, n in orion_cache_stats().items()}


@pytest.mark.parametrize(
    "change",
    [
        dict(slo_ms=950.0),
        dict(concurrency=2),
        dict(mc_samples=201),
        dict(seed=8),
        dict(target_percentile=50.0),
        dict(safety_margin=0.2),
    ],
    ids=lambda change: next(iter(change)),
)
def test_each_knob_alone_misses(change):
    workflow, profiles = make_chain_workflow(3, limits=LIMITS), synthetic_profiles()
    OrionPolicy(workflow, profiles, **BASE)
    before = builds()
    OrionPolicy(workflow, profiles, **BASE)
    assert builds() == before
    OrionPolicy(workflow, profiles, **{**BASE, **change})
    assert builds() == before + 1


def test_workflow_name_and_profile_table_alone_miss():
    workflow, profiles = make_chain_workflow(3, limits=LIMITS), synthetic_profiles()
    OrionPolicy(workflow, profiles, **BASE)
    before = builds()
    OrionPolicy(dataclasses.replace(workflow, name="renamed"), profiles, **BASE)
    assert builds() == before + 1
    OrionPolicy(workflow, synthetic_profiles(bump=1.01), **BASE)
    assert builds() == before + 2


def test_resolved_knobs_share_one_plan():
    # The key holds the SLO and percentile the build uses, so spelling out
    # the workflow's SLO or the profiles' anchor hits the default's entry.
    workflow, profiles = make_chain_workflow(3, limits=LIMITS), synthetic_profiles()
    OrionPolicy(workflow, profiles, **{**BASE, "slo_ms": None})
    before = builds()
    OrionPolicy(workflow, profiles, **{**BASE, "slo_ms": workflow.slo_ms})
    OrionPolicy(workflow, profiles, **{**BASE, "slo_ms": None,
                                      "target_percentile": GRID.anchor})
    assert builds() == before


def assert_same_build(hit: OrionPolicy, live: OrionPolicy) -> None:
    assert hit is not live and hit.plan is not live.plan
    assert hit.plan == live.plan
    assert hit.slo_ms == live.slo_ms
    assert hit.stage_order == live.stage_order
    assert hit.e2e_p99_ms.hex() == live.e2e_p99_ms.hex()


def test_memory_and_disk_hits_return_the_live_build(tmp_path):
    workflow, profiles = real_case("IA", 1)
    set_orion_cache_dir(tmp_path)
    start = orion_cache_stats()
    live = OrionPolicy(workflow, profiles, slo_ms=workflow.slo_ms * 1.25)
    assert since(start) == {"memory_hits": 0, "disk_hits": 0, "builds": 1}
    assert len(list(tmp_path.iterdir())) == 1
    memory = OrionPolicy(workflow, profiles, slo_ms=workflow.slo_ms * 1.25)
    clear_orion_cache()
    disk = OrionPolicy(workflow, profiles, slo_ms=workflow.slo_ms * 1.25)
    assert since(start) == {"memory_hits": 1, "disk_hits": 1, "builds": 1}
    assert_same_build(memory, live)
    assert_same_build(disk, live)
    memory.plan[0] = 1  # a hit's plan is the policy's own list
    again = OrionPolicy(workflow, profiles, slo_ms=workflow.slo_ms * 1.25)
    assert again.plan == live.plan


@pytest.mark.parametrize(
    "entry", ["{not json", '{"plan": [1000], "e2e_p99_ms": 1.0}', "[]"],
    ids=["torn", "wrong-length", "wrong-shape"],
)
def test_bad_disk_entry_is_a_miss_and_heals(tmp_path, entry):
    workflow, profiles = real_case("VA", 1)
    set_orion_cache_dir(tmp_path)
    start = orion_cache_stats()
    live = OrionPolicy(workflow, profiles)
    (path,) = tmp_path.iterdir()
    path.write_text(entry)
    clear_orion_cache()
    rebuilt = OrionPolicy(workflow, profiles)
    assert since(start)["builds"] == 2
    assert_same_build(rebuilt, live)
    clear_orion_cache()
    OrionPolicy(workflow, profiles)
    assert since(start) == {"memory_hits": 0, "disk_hits": 1, "builds": 2}


def test_infeasible_slo_raises_every_time_and_stores_nothing(tmp_path):
    workflow, profiles = real_case("IA", 1)
    set_orion_cache_dir(tmp_path)
    start = orion_cache_stats()
    for _ in range(3):
        with pytest.raises(PolicyError, match="infeasible even at Kmax"):
            OrionPolicy(workflow, profiles, slo_ms=10.0)
    assert since(start) == {"memory_hits": 0, "disk_hits": 0, "builds": 0}
    assert list(tmp_path.iterdir()) == []


def test_sweep_builds_each_distinct_plan_once(tmp_path):
    # 16 cells, 4 distinct plans: arrivals and tenants do not reach ORION.
    matrix = ScenarioMatrix(
        workflows=("IA", "VA"),
        arrivals=(parse_arrival("constant"), parse_arrival("poisson@8")),
        slo_scales=(1.0, 1.25),
        tenant_counts=(1, 2),
        policies=("ORION",),
        n_requests=20,
        samples=300,
        seed=3,
    )
    cold = SweepRunner(max_workers=1, cache_dir=tmp_path).run(matrix)
    assert cold.synthesis_cache["orion"] == {
        "memory_hits": 12, "disk_hits": 0, "builds": 4,
    }
    assert len(list((tmp_path / "orion").iterdir())) == 4
    # A second process: no cells, no memory memo, only the orion/ layer.
    shutil.rmtree(tmp_path / "cells")
    clear_orion_cache()
    warm = SweepRunner(max_workers=1, cache_dir=tmp_path).run(matrix)
    assert warm.synthesis_cache["orion"] == {
        "memory_hits": 12, "disk_hits": 4, "builds": 0,
    }
    assert warm.to_json() == cold.to_json()
    assert orion_cache_dir() is None  # the sweep restored the caller's layer
