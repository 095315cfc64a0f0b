"""ORION: the vectorised build against the per-size, per-trial reference.

:func:`reference_orion` is the greedy ORION used to run: one ``np.interp``
per (stage, size) to build the Monte-Carlo sample tables and one
``np.percentile`` per greedy trial. It stays here as the parity reference.
:class:`repro.policies.orion.OrionPolicy` must return the very same plan
and the same ``e2e_p99_ms`` bits, and raise the same ``PolicyError`` where
the reference does.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PolicyError
from repro.policies.orion import OrionPolicy, _inverse_cdf_table, _percentile_rows
from repro.profiling.profiler import profile_workflow
from repro.profiling.profiles import LatencyProfile, ProfileSet
from repro.rng import derive_rng
from repro.types import PercentileGrid, ResourceLimits
from repro.workflow.catalog import intelligent_assistant, video_analytics
from tests.conftest import make_chain_workflow

WORKFLOWS = {"IA": intelligent_assistant, "VA": video_analytics}


def reference_orion(
    workflow,
    profiles,
    concurrency=1,
    slo_ms=None,
    mc_samples=4000,
    seed=7,
    target_percentile=None,
    safety_margin=0.10,
) -> tuple[list[int], float]:
    """The per-size, per-trial greedy: ``(plan, e2e_p99_ms)``."""
    slo = float(slo_ms if slo_ms is not None else workflow.slo_ms)
    target = slo * (1.0 - safety_margin)
    chain = workflow.chain
    limits = profiles.limits
    anchor = (
        target_percentile
        if target_percentile is not None
        else profiles.percentiles.anchor
    )
    rng = derive_rng(seed, "orion", workflow.name)
    uniforms = [
        rng.uniform(
            profiles.percentiles.percentiles[0],
            profiles.percentiles.percentiles[-1],
            size=mc_samples,
        )
        for _ in chain
    ]
    p_grid = profiles.percentiles.as_array()
    samples = [
        np.stack(
            [
                np.interp(uniforms[i], p_grid, prof.plane(concurrency)[:, ki])
                for ki in range(limits.num_options)
            ]
        )
        for i, prof in enumerate(profiles.for_chain(chain))
    ]

    def e2e_p99(indices: list[int]) -> float:
        total = np.zeros(mc_samples)
        for i, ki in enumerate(indices):
            total += samples[i][ki]
        return float(np.percentile(total, anchor))

    k_idx = [limits.num_options - 1] * len(chain)
    if e2e_p99(k_idx) > target:
        if e2e_p99(k_idx) > slo:
            raise PolicyError(
                f"ORION: SLO {slo} ms infeasible even at Kmax "
                f"(E2E P{anchor:g} = {e2e_p99(k_idx):.0f} ms)"
            )
        target = slo
    improved = True
    while improved:
        improved = False
        best_stage = -1
        best_headroom = -np.inf
        for i in range(len(chain)):
            if k_idx[i] == 0:
                continue
            trial = list(k_idx)
            trial[i] -= 1
            p99 = e2e_p99(trial)
            if p99 <= target and target - p99 > best_headroom:
                best_headroom = target - p99
                best_stage = i
        if best_stage >= 0:
            k_idx[best_stage] -= 1
            improved = True
    return [int(limits.grid()[ki]) for ki in k_idx], e2e_p99(k_idx)


def assert_parity(workflow, profiles, **knobs) -> None:
    try:
        plan, p99 = reference_orion(workflow, profiles, **knobs)
    except PolicyError as exc:
        with pytest.raises(PolicyError) as got:
            OrionPolicy(workflow, profiles, **knobs)
        assert str(got.value) == str(exc)
        return
    policy = OrionPolicy(workflow, profiles, **knobs)
    assert policy.plan == plan, knobs
    assert policy.e2e_p99_ms.hex() == p99.hex(), knobs


def bits(values: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.float64).view(np.int64)


@functools.lru_cache(maxsize=None)
def real_case(name: str, profile_seed: int):
    workflow = WORKFLOWS[name]()
    return workflow, profile_workflow(workflow, seed=profile_seed, samples=1000)


class TestPinnedProfiles:
    @pytest.mark.parametrize("profile_seed", [1, 2, 3])
    @pytest.mark.parametrize("name", ["IA", "VA"])
    def test_plans_and_p99_bits_match_reference(self, name, profile_seed):
        workflow, profiles = real_case(name, profile_seed)
        for scale in (0.5, 1.0, 1.25, 2.0, 3.0):
            for margin in (0.0, 0.1):
                for anchor in (None, 50.0, 100.0):
                    assert_parity(
                        workflow, profiles,
                        slo_ms=workflow.slo_ms * scale,
                        safety_margin=margin,
                        target_percentile=anchor,
                    )

    def test_infeasible_slo_raises_the_reference_error(self):
        workflow, profiles = real_case("IA", 1)
        with pytest.raises(PolicyError) as want:
            reference_orion(workflow, profiles, slo_ms=10.0)
        with pytest.raises(PolicyError, match="infeasible even at Kmax") as got:
            OrionPolicy(workflow, profiles, slo_ms=10.0)
        assert str(got.value) == str(want.value)


@st.composite
def synthetic_cases(draw):
    """Random monotone tables with ties, and ORION knobs around them."""
    stages = draw(st.integers(1, 4))
    num_p = draw(st.integers(2, 25))
    num_k = draw(st.integers(1, 30))
    concurrencies = draw(st.sampled_from([(1,), (1, 2)]))
    ps = sorted(draw(st.lists(
        st.integers(1, 999), min_size=num_p, max_size=num_p, unique=True,
    )))
    grid = PercentileGrid(
        percentiles=tuple(p / 10 for p in ps), anchor=draw(st.sampled_from(ps)) / 10
    )
    limits = ResourceLimits(kmin=100, kmax=100 * num_k, step=100)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Few distinct values, projected onto the monotone cone: many ties
    # along both axes, including planes constant in p.
    levels = np.array([1.0, 2.0, 2.5, 10.0, 40.0, 250.0])
    shape = (len(concurrencies), num_p, num_k)
    profiles = ProfileSet({
        f"F{i}": LatencyProfile(
            function=f"F{i}", percentiles=grid, limits=limits,
            concurrencies=concurrencies, table=rng.choice(levels, size=shape),
        ).enforce_monotone()
        for i in range(stages)
    })
    concurrency = concurrencies[-1]
    kmax_worst = sum(
        float(profiles[f"F{i}"].plane(concurrency)[-1, -1]) for i in range(stages)
    )
    workflow = make_chain_workflow(stages, limits=limits)
    knobs = dict(
        concurrency=concurrency,
        slo_ms=kmax_worst * draw(st.sampled_from([0.5, 0.95, 1.0, 1.5, 3.0, 20.0])),
        mc_samples=draw(st.sampled_from([1, 2, 7, 4000])),
        seed=draw(st.integers(0, 100)),
        target_percentile=draw(st.sampled_from([None, 0.0, 100.0, 50.0, 99.0, 12.5])),
        safety_margin=draw(st.sampled_from([0.0, 0.1, 0.5])),
    )
    return workflow, profiles, knobs


class TestSyntheticTables:
    @settings(max_examples=80, deadline=None)
    @given(synthetic_cases())
    def test_matches_reference(self, case):
        workflow, profiles, knobs = case
        assert_parity(workflow, profiles, **knobs)

    def test_headroom_ties_pick_the_first_stage(self):
        # Planes constant in p make every stage's draws identical, so all
        # trials of a step tie: the first stage in chain order must win.
        # Whole-number latencies keep every sum exact, so the ties are too.
        limits = ResourceLimits(kmin=100, kmax=1000, step=100)
        grid = PercentileGrid(percentiles=(10.0, 50.0, 99.0), anchor=99.0)
        row = 300.0 - 30.0 * np.arange(limits.num_options)
        table = np.broadcast_to(row, (1, 3, limits.num_options))
        profiles = ProfileSet({
            f"F{i}": LatencyProfile(f"F{i}", grid, limits, (1,), table)
            for i in range(3)
        })
        workflow = make_chain_workflow(3, limits=limits)
        for scale in (1.0, 1.7, 2.5, 4.0):
            assert_parity(workflow, profiles, slo_ms=90.0 * scale)
        policy = OrionPolicy(workflow, profiles, slo_ms=400.0, safety_margin=0.0)
        assert policy.plan == [100, 900, 1000]  # 300 + 60 + 30 ms


class TestInverseCdfTable:
    P_GRID = np.array([1.0, 5.0, 25.0, 50.0, 75.0, 90.0, 99.0])

    def plane(self) -> np.ndarray:
        rng = np.random.default_rng(3)
        t = rng.choice([1.0, 3.0, 3.0, 17.5, 60.0], size=(1, 7, 6))
        return LatencyProfile(
            "F", PercentileGrid(tuple(self.P_GRID.tolist())),
            ResourceLimits(100, 600, 100), (1,), t,
        ).enforce_monotone().plane(1)

    def check(self, uniforms: np.ndarray) -> None:
        plane = self.plane()
        want = np.stack(
            [np.interp(uniforms, self.P_GRID, plane[:, k]) for k in range(6)]
        )
        got = _inverse_cdf_table(plane, self.P_GRID, uniforms)
        assert got.shape == want.shape and got.flags.c_contiguous
        assert np.array_equal(bits(got), bits(want))

    def test_draws_on_grid_points(self):
        self.check(self.P_GRID.copy())  # u == p[j], including u == p[-1]

    def test_right_edge_and_neighbours(self):
        top = self.P_GRID[-1]
        self.check(np.array([
            top, top, np.nextafter(top, 0.0), np.nextafter(top, np.inf), 100.0,
            np.nextafter(self.P_GRID[0], np.inf), np.nextafter(25.0, 0.0),
        ]))

    def test_top_draw_is_the_top_row_exactly(self):
        # Interpolating to p[-1] from below would round to another value
        # on this column; the right-edge rule returns plane[-1] itself.
        p_grid = np.array([1.0, 90.0, 99.0])
        plane = np.array([[0.5202130106440961], [2.3064220899374743],
                          [7.963242702872942]])
        got = _inverse_cdf_table(plane, p_grid, np.array([99.0]))
        assert got[0, 0] == plane[-1, 0] == np.interp(99.0, p_grid, plane[:, 0])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(1.0, 99.0), min_size=1, max_size=50))
    def test_random_draws(self, uniforms):
        self.check(np.array(uniforms))

    def test_single_percentile_grid(self):
        plane = np.array([[5.0, 4.0, 2.0]])
        got = _inverse_cdf_table(plane, np.array([50.0]), np.array([50.0, 50.0]))
        assert np.array_equal(got, [[5.0, 5.0], [4.0, 4.0], [2.0, 2.0]])


class TestPercentileRows:
    @settings(max_examples=120, deadline=None)
    @given(
        rows=st.integers(1, 4),
        n=st.sampled_from([1, 2, 3, 7, 100, 4000]),
        q=st.one_of(st.sampled_from([0.0, 50.0, 99.0, 100.0]), st.floats(0.0, 100.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_np_percentile_bits(self, rows, n, q, seed):
        rng = np.random.default_rng(seed)
        block = rng.choice([0.5, 1.0, 1.0, 7.25, 1e3], size=(rows, n))
        block += rng.integers(0, 3, size=(rows, n)) * rng.random()
        got = _percentile_rows(block, q)
        want = [np.percentile(row, q) for row in block]
        assert np.array_equal(bits(got), bits(want))

    def test_lerp_branch_at_gamma_one_half(self):
        # gamma == 0.5 takes numpy's upper branch, b - (b - a) * 0.5, which
        # differs in the last bit from a + (b - a) * 0.5 on this pair.
        block = np.array([[0.02738500170148095, 8.158535541215322]])
        got = _percentile_rows(block, 50.0)
        assert got.tolist() == [np.percentile(block[0], 50.0)] == [4.092960271458401]

    def test_upper_statistic_is_the_min_of_the_rest(self):
        # A single-kth partition does not always leave the next order
        # statistic at lo + 1: numpy 2.4's introselect does not, on this
        # block, for some row.
        block = np.random.default_rng(25).random((3, 4000))
        got = _percentile_rows(block, 50.0)
        assert np.array_equal(bits(got), bits(np.percentile(block, 50.0, axis=1)))


class TestKnobValidation:
    @pytest.mark.parametrize("mc_samples", [0, -5, 2.5, "100"])
    def test_mc_samples(self, mc_samples):
        workflow, profiles = real_case("IA", 1)
        with pytest.raises(PolicyError, match="mc_samples"):
            OrionPolicy(workflow, profiles, mc_samples=mc_samples)

    @pytest.mark.parametrize("percentile", [-0.5, 100.5, math.nan, math.inf])
    def test_target_percentile(self, percentile):
        workflow, profiles = real_case("IA", 1)
        with pytest.raises(PolicyError, match="target_percentile"):
            OrionPolicy(workflow, profiles, target_percentile=percentile)

    @pytest.mark.parametrize("slo_ms", [math.nan, math.inf, -math.inf])
    def test_slo_ms(self, slo_ms):
        workflow, profiles = real_case("IA", 1)
        with pytest.raises(PolicyError, match="slo_ms"):
            OrionPolicy(workflow, profiles, slo_ms=slo_ms)
