"""Optimal oracle: the batched cost-indexed DP against the time-indexed one.

:func:`reference_plan` is the time-indexed dynamic program the oracle used
to solve once per request: per stage, a shift-and-min over ``tmax + 1``
budget cells, with ``argmin``'s first-minimum tie rule. It stays here as
the parity reference. :func:`repro.policies.oracle.solve_plans` must return
the very same plan for every row, not merely one of equal cost, whether a
request is solved alone, in a batch, or across a block boundary.
"""

from __future__ import annotations

import dataclasses
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import PolicyError
from repro.policies import oracle as oracle_module
from repro.policies.oracle import OraclePolicy, solve_plans
from repro.traces.workload import WorkloadConfig, generate_requests
from repro.workflow.catalog import intelligent_assistant, video_analytics

SLO_SCALES = (0.3, 0.5, 1.0, 1.25, 2.0)


def reference_plan(
    durations: np.ndarray, tmax: int, k_vals: np.ndarray
) -> list[int] | None:
    """Time-indexed DP over one ``int64[N, K]`` table: grid indices of the
    least-cost plan fitting ``tmax``, or ``None`` when none fits."""
    n, num_k = durations.shape
    size = tmax + 1
    cost = np.full((n, size), np.inf)
    argk = np.full((n, size), -1, dtype=np.int32)
    for j in range(n - 1, -1, -1):
        if j == n - 1:
            for ki in range(num_k - 1, -1, -1):
                d = int(durations[j, ki])
                if d <= tmax:
                    cost[j, d:] = k_vals[ki]
                    argk[j, d:] = ki
            continue
        cand = np.full((num_k, size), np.inf)
        for ki in range(num_k):
            d = int(durations[j, ki])
            if d <= tmax:
                cand[ki, d:] = k_vals[ki] + cost[j + 1, : size - d]
        best = np.argmin(cand, axis=0).astype(np.int32)
        best_cost = cand[best, np.arange(size)]
        cost[j] = best_cost
        argk[j] = np.where(np.isfinite(best_cost), best, -1)
    if not np.isfinite(cost[0, tmax]):
        return None
    plan, budget = [], tmax
    for j in range(n):
        ki = int(argk[j, budget])
        plan.append(ki)
        budget -= int(durations[j, ki])
    return plan


def reference_durations(workflow, request) -> np.ndarray:
    """``int64[N, K]``: one request's ceil'd stage times, a row per stage."""
    grid = workflow.limits.grid()
    num_k = grid.size
    rows = []
    for fname in workflow.chain:
        dyn = request.dynamics_for(fname)
        times = workflow.model(fname).execution_times(
            grid,
            np.full(num_k, dyn.workset),
            np.full(num_k, dyn.noise_z),
            np.full(num_k, dyn.interference),
            np.full(num_k, request.concurrency, dtype=np.int64),
        )
        rows.append(np.ceil(times).astype(np.int64))
    return np.stack(rows)


def reference_sizes(workflow, slo_ms: float, request) -> list[int]:
    """The plan the per-request time-indexed oracle served (Kmax fallback)."""
    grid = workflow.limits.grid()
    plan = reference_plan(
        reference_durations(workflow, request), int(slo_ms),
        grid.astype(np.float64),
    )
    if plan is None:
        return [int(workflow.limits.kmax)] * len(workflow.chain)
    return [int(grid[ki]) for ki in plan]


def oracle_plans(policy: OraclePolicy, requests) -> list[list[int]]:
    """Begin every request, then read every stage size (one batched solve)."""
    for request in requests:
        policy.begin_request(request)
    n = len(policy.stage_order)
    return [
        [policy.size_for_stage(i, request, 0.0) for i in range(n)]
        for request in requests
    ]


def ia_requests(n: int, slo_scale: float = 1.0, seed: int = 1):
    wf = intelligent_assistant()
    wf = wf.with_slo(slo_scale * wf.slo_ms)
    config = WorkloadConfig(n_requests=n, slo_ms=wf.slo_ms)
    return wf, generate_requests(wf, config, seed=seed)


@st.composite
def duration_tables(draw):
    n = draw(st.integers(1, 4))
    num_k = draw(st.integers(1, 6))
    rows = draw(st.integers(1, 8))
    # A narrow value range makes ties between plans common.
    top = draw(st.sampled_from([0, 2, 5, 29]))
    cells = n * rows * num_k
    flat = draw(st.lists(st.integers(0, top), min_size=cells, max_size=cells))
    tmax = draw(st.integers(0, 2 * top + 3))
    return np.asarray(flat, dtype=np.int64).reshape(n, rows, num_k), tmax


class TestSolvePlans:
    @settings(max_examples=300, deadline=None)
    @given(duration_tables())
    @example((np.zeros((1, 1, 1), dtype=np.int64), 0))  # K = 1, tmax = 0
    @example((np.ones((3, 2, 1), dtype=np.int64), 2))  # K = 1, infeasible
    @example((np.full((2, 3, 4), 7, dtype=np.int64), 14))  # all tied
    def test_matches_time_indexed_reference(self, table):
        durations, tmax = table
        n, rows, num_k = durations.shape
        k_vals = 1000.0 + 100.0 * np.arange(num_k)
        plans = solve_plans(durations, tmax)
        assert plans.shape == (rows, n)
        for r in range(rows):
            want = reference_plan(durations[:, r, :], tmax, k_vals)
            assert plans[r].tolist() == (want if want is not None else [-1] * n)

    def test_infeasible_rows_are_marked(self):
        durations = np.array([[[5, 3], [9, 8]], [[5, 3], [9, 8]]])
        plans = solve_plans(durations, tmax=8)
        assert plans.tolist() == [[0, 1], [-1, -1]]

    def test_large_durations_do_not_overflow(self):
        big = np.iinfo(np.int64).max
        durations = np.array([[[big, 4]], [[big, big]], [[1, 1]]])
        assert solve_plans(durations, tmax=10).tolist() == [[-1, -1, -1]]
        durations[1, 0, 1] = 2
        assert solve_plans(durations, tmax=10).tolist() == [[1, 1, 0]]


class TestOracleParity:
    @pytest.mark.parametrize("scale", SLO_SCALES)
    @pytest.mark.parametrize("make", [intelligent_assistant, video_analytics])
    def test_plans_identical_to_reference(self, make, scale):
        wf = make()
        slo_ms = scale * wf.slo_ms
        wf = wf.with_slo(slo_ms)
        requests = generate_requests(
            wf, WorkloadConfig(n_requests=400, slo_ms=slo_ms), seed=1
        )
        got = oracle_plans(OraclePolicy(wf), requests)
        want = [reference_sizes(wf, slo_ms, r) for r in requests]
        assert got == want

    def test_plan_independent_of_batching(self, monkeypatch):
        # SLO x0.5 mixes feasible rows with Kmax-fallback ones.
        wf, requests = ia_requests(60, slo_scale=0.5, seed=3)
        batch = oracle_plans(OraclePolicy(wf), requests)
        alone = [oracle_plans(OraclePolicy(wf), [r])[0] for r in requests]
        monkeypatch.setattr(oracle_module, "_SOLVE_BLOCK", 7)
        blocked = oracle_plans(OraclePolicy(wf), requests)
        assert batch == alone == blocked
        assert any(len(set(p)) == 1 and p[0] == wf.limits.kmax for p in batch)
        assert any(p[0] < wf.limits.kmax for p in batch)


class TestDeferredQueue:
    def test_end_before_size_raises(self):
        wf, (a, b) = ia_requests(2)
        oracle = OraclePolicy(wf)
        oracle.begin_request(a)
        oracle.begin_request(b)
        oracle.end_request(a)
        assert oracle.size_for_stage(0, b, 0.0) > 0
        with pytest.raises(PolicyError, match="begin_request not called"):
            oracle.size_for_stage(0, a, 0.0)

    def test_rebegun_id_replaces_its_plan(self):
        wf, requests = ia_requests(40, slo_scale=0.5)
        plans = oracle_plans(OraclePolicy(wf), requests)
        i, j = next(
            (i, j) for i in range(len(plans)) for j in range(len(plans))
            if plans[i] != plans[j]
        )
        twin = dataclasses.replace(requests[j], request_id=requests[i].request_id)
        oracle = OraclePolicy(wf)
        assert oracle_plans(oracle, [requests[i]]) == [plans[i]]
        assert oracle_plans(oracle, [twin]) == [plans[j]]  # after a solve
        oracle.begin_request(requests[i])
        assert oracle_plans(oracle, [twin]) == [plans[j]]  # still queued

    def test_begin_after_solve_triggers_second_solve(self, monkeypatch):
        calls = []

        def counting(durations, tmax):
            calls.append(durations.shape[1])
            return solve_plans(durations, tmax)

        monkeypatch.setattr(oracle_module, "solve_plans", counting)
        wf, (a, b, c) = ia_requests(3)
        oracle = OraclePolicy(wf)
        oracle.begin_request(a)
        oracle.begin_request(b)
        first = [oracle.size_for_stage(0, r, 0.0) for r in (a, b)]
        assert calls == [2]
        assert oracle_plans(oracle, [c])[0][0] > 0
        assert calls == [2, 1]
        assert [oracle.size_for_stage(0, r, 0.0) for r in (a, b)] == first


class TestSloIndependentCost:
    def test_huge_slo_solves_fast_at_kmin(self):
        wf, requests = ia_requests(200, slo_scale=1000.0)
        start = time.perf_counter()
        plans = oracle_plans(OraclePolicy(wf), requests)
        assert time.perf_counter() - start < 1.0
        assert all(k == wf.limits.kmin for plan in plans for k in plan)

    def test_twenty_thousand_request_solve_memory_is_bounded(self):
        wf, requests = ia_requests(20_000)
        oracle = OraclePolicy(wf)
        for request in requests:
            oracle.begin_request(request)
        tracemalloc.start()
        try:
            oracle.size_for_stage(0, requests[0], 0.0)  # solves all 20k
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
