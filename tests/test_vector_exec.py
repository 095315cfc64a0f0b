"""The batched analytic path is bit-identical to the scalar reference.

The batched core both analytic executors share (``run`` and
``run_streaming`` on ``AnalyticExecutor`` and ``DagAnalyticExecutor``) and
every array kernel feeding it (model evaluation, grid clamping, hint
lookups, supervisor accounting) are pure-speedup refactors: each element
must equal the scalar walk (``run_request``) to the last bit, not
approximately. This suite pins that contract with hypothesis property
tests over random workflows/policies/streams, plus direct tests for the
array paths (streaming chunk boundaries, the base-class scalar fallback
loop, clamp/off-grid error handling under batching, outcome-list columns).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adapter.adapter import JanusAdapter
from repro.adapter.supervisor import HitMissSupervisor
from repro.errors import ExperimentError, FunctionModelError, ProfileError
from repro.functions.model import InvocationDynamics
from repro.metrics.streaming import StreamingMoments, StreamingSummary
from repro.policies.base import SizingPolicy
from repro.policies.dag import DagFixedPolicy, DagJanusPolicy
from repro.policies.early_binding import FixedPlanPolicy, WorstCasePolicy
from repro.policies.janus import janus
from repro.policies.oracle import OraclePolicy
from repro.profiling.profiler import Profiler, ProfilerConfig
from repro.profiling.profiles import ProfileSet
from repro.rng import RngFactory
from repro.runtime.dag_executor import DagAnalyticExecutor
from repro.runtime.executor import AnalyticExecutor
from repro.runtime.results import OutcomeColumns, RunResult, StreamingRunResult
from repro.synthesis.dag import synthesize_dag_hints
from repro.synthesis.hints import CondensedHintsTable
from repro.traces.workload import WorkloadConfig, generate_requests
from repro.types import ResourceLimits
from repro.workflow.catalog import Workflow
from repro.workflow.dag import WorkflowDAG
from repro.workflow.request import RequestOutcome, StageRecord
from tests.conftest import (
    make_chain_workflow,
    make_function,
    small_limits,
    tiny_percentiles,
)


def assert_outcomes_identical(got, want):
    """Field-by-field float-exact equality of two outcome lists."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.request_id == b.request_id
        assert a.arrival_ms == b.arrival_ms
        assert a.slo_ms == b.slo_ms
        assert len(a.stages) == len(b.stages)
        for sa, sb in zip(a.stages, b.stages):
            assert sa.function == sb.function
            assert sa.size == sb.size
            assert sa.start_ms == sb.start_ms
            assert sa.end_ms == sb.end_ms


def assert_run_identical(executor, make_policy, requests):
    """Batched ``run`` equals a scalar ``run_request`` replay.

    ``make_policy`` builds a fresh instance per path so stateful policies
    (adapter counters, oracle plan caches) start from the same state.
    """
    result = executor.run(make_policy(), requests)
    scalar_policy = make_policy()
    reference = [executor.run_request(scalar_policy, r) for r in requests]
    assert_outcomes_identical(result.outcomes, reference)
    ref = RunResult(policy_name=scalar_policy.name, outcomes=reference)
    assert np.array_equal(result.e2e_ms(), ref.e2e_ms())
    assert np.array_equal(result.slacks(), ref.slacks())
    assert np.array_equal(result.allocated(), ref.allocated())
    assert result.violation_rate == ref.violation_rate
    assert result.mean_millicore_ms == ref.mean_millicore_ms
    return result


def assert_streaming_matches_fold(executor, policy, requests):
    """Chunked ``run_streaming`` equals folding ``run_request`` outcomes
    into the same estimators in arrival order."""
    streamed = executor.run_streaming(policy, iter(requests), chunk_size=5)
    latency = StreamingSummary((50.0, 99.0))
    cost = StreamingMoments()
    slack = StreamingMoments()
    violations = 0
    for request in requests:
        outcome = executor.run_request(policy, request)
        latency.add(outcome.e2e_ms)
        cost.add(outcome.allocated_millicores)
        slack.add(outcome.slack)
        violations += not outcome.slo_met
    assert streamed == StreamingRunResult(
        policy_name=policy.name,
        n_requests=len(requests),
        mean_allocated=cost.mean,
        p50_e2e_ms=latency.percentile(50.0),
        p99_e2e_ms=latency.percentile(99.0),
        violation_rate=violations / len(requests),
        mean_slack=slack.mean,
    )


class ElapsedRampPolicy(SizingPolicy):
    """Late-binding third-party-style policy: overrides only the scalar
    method, so the batched executor exercises the base-class fallback."""

    name = "elapsed-ramp"
    late_binding = True

    def __init__(self, limits: ResourceLimits, slo_ms: float) -> None:
        self._limits = limits
        self._slo = float(slo_ms)

    def size_for_node(self, node, request, elapsed_ms):
        span = self._limits.kmax - self._limits.kmin
        return self._limits.clamp(
            self._limits.kmin + int(elapsed_ms / self._slo * span)
        )


class OffGridPolicy(SizingPolicy):
    """Returns a size off every grid (for the strict error path)."""

    name = "off-grid"

    def size_for_node(self, node, request, elapsed_ms):
        return 1234


class TestChainBitIdentity:
    @settings(max_examples=25, deadline=None)
    @given(
        n_stages=st.integers(min_value=1, max_value=4),
        n_requests=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=2**20),
        kind=st.sampled_from(["fixed", "worst", "ramp"]),
    )
    def test_random_streams(self, n_stages, n_requests, seed, kind):
        wf = make_chain_workflow(n=n_stages)
        requests = generate_requests(
            wf, WorkloadConfig(n_requests=n_requests), seed=seed
        )
        rng = np.random.default_rng(seed)
        if kind == "fixed":
            plan = [int(k) for k in rng.choice(wf.limits.grid(), n_stages)]
            make_policy = lambda: FixedPlanPolicy("fixed", plan)  # noqa: E731
        elif kind == "worst":
            make_policy = lambda: WorstCasePolicy(wf)  # noqa: E731
        else:
            make_policy = lambda: ElapsedRampPolicy(  # noqa: E731
                wf.limits, wf.slo_ms
            )
        result = assert_run_identical(
            AnalyticExecutor(wf), make_policy, requests
        )
        assert result.columns.order is None  # a chain completes in order

    def test_janus_policy(self, small_workflow, small_profiles, small_budget):
        requests = generate_requests(
            small_workflow, WorkloadConfig(n_requests=80), seed=3
        )
        assert_run_identical(
            AnalyticExecutor(small_workflow),
            lambda: janus(small_workflow, small_profiles, budget=small_budget),
            requests,
        )

    def test_oracle_policy(self, small_workflow):
        requests = generate_requests(
            small_workflow, WorkloadConfig(n_requests=40), seed=8
        )
        assert_run_identical(
            AnalyticExecutor(small_workflow),
            lambda: OraclePolicy(small_workflow),
            requests,
        )

    def test_strict_off_grid_raises_under_batching(self):
        wf = make_chain_workflow(n=2)
        requests = generate_requests(wf, WorkloadConfig(n_requests=5), seed=1)
        executor = AnalyticExecutor(wf, clamp_sizes=False)
        with pytest.raises(
            ExperimentError, match="size 1234 off-grid for stage F0"
        ):
            executor.run(OffGridPolicy(), requests)

    def test_clamp_snaps_like_scalar(self):
        wf = make_chain_workflow(n=2)
        requests = generate_requests(wf, WorkloadConfig(n_requests=12), seed=2)
        assert_run_identical(AnalyticExecutor(wf), OffGridPolicy, requests)

    def test_empty_stream_rejected(self):
        wf = make_chain_workflow(n=2)
        with pytest.raises(ExperimentError, match="request stream is empty"):
            AnalyticExecutor(wf).run(WorstCasePolicy(wf), [])


class TestVectorSafeFallback:
    """Policies with only the scalar method still run batched."""

    def test_base_fallback_loops_scalar_method(self):
        wf = make_chain_workflow(n=2)
        requests = generate_requests(wf, WorkloadConfig(n_requests=6), seed=5)
        policy = ElapsedRampPolicy(wf.limits, wf.slo_ms)
        policy.bind(wf)
        sizes = policy.sizes_for_node("F1", requests, np.full(6, 321.5))
        assert sizes.dtype == np.int64
        expected = [policy.size_for_node("F1", r, 321.5) for r in requests]
        assert sizes.tolist() == expected


class TestStreamingChunks:
    @pytest.mark.parametrize("chunk_size", [1, 2, 3, 7, 64])
    def test_chunk_boundaries_bit_identical(self, chunk_size):
        wf = make_chain_workflow(n=3)
        requests = generate_requests(wf, WorkloadConfig(n_requests=23), seed=6)
        executor = AnalyticExecutor(wf)
        policy = WorstCasePolicy(wf)
        chunked = executor.run_streaming(
            policy, iter(requests), chunk_size=chunk_size
        )
        whole = executor.run_streaming(policy, iter(requests))
        assert chunked == whole

    def test_matches_scalar_fold(self):
        wf = make_chain_workflow(n=3)
        requests = generate_requests(wf, WorkloadConfig(n_requests=23), seed=7)
        assert_streaming_matches_fold(
            AnalyticExecutor(wf),
            ElapsedRampPolicy(wf.limits, wf.slo_ms),
            requests,
        )

    def test_dag_matches_scalar_fold(self, diamond_workflow):
        wf = diamond_workflow
        requests = generate_requests(wf, WorkloadConfig(n_requests=23), seed=7)
        plan = {n: wf.limits.kmin for n in wf.dag.nodes}
        assert_streaming_matches_fold(
            DagAnalyticExecutor(wf), DagFixedPolicy("fixed-dag", plan), requests
        )

    def test_bad_chunk_size_rejected(self):
        wf = make_chain_workflow(n=2)
        with pytest.raises(ExperimentError, match="chunk_size must be >= 1"):
            AnalyticExecutor(wf).run_streaming(
                WorstCasePolicy(wf), iter([]), chunk_size=0
            )

    def test_empty_stream_rejected(self):
        wf = make_chain_workflow(n=2)
        with pytest.raises(ExperimentError, match="request stream is empty"):
            AnalyticExecutor(wf).run_streaming(WorstCasePolicy(wf), iter([]))


@pytest.fixture(scope="module")
def diamond_workflow():
    dag = WorkflowDAG(
        ["A", "B", "C", "D"],
        [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")],
    )
    functions = {
        "A": make_function("A", serial=40, parallel=260, sigma=0.08, gamma=0.2),
        "B": make_function("B", serial=80, parallel=520, sigma=0.08, gamma=0.2),
        "C": make_function("C", serial=20, parallel=120, sigma=0.08, gamma=0.2),
        "D": make_function("D", serial=40, parallel=240, sigma=0.08, gamma=0.2),
    }
    return Workflow(
        name="diamond", dag=dag, functions=functions,
        slo_ms=1450.0, limits=small_limits(),
    )


class TestDagBitIdentity:
    @settings(max_examples=20, deadline=None)
    @given(
        n_requests=st.integers(min_value=1, max_value=30),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    def test_fixed_plan_random_streams(self, diamond_workflow, n_requests, seed):
        wf = diamond_workflow
        requests = generate_requests(
            wf, WorkloadConfig(n_requests=n_requests), seed=seed
        )
        rng = np.random.default_rng(seed)
        plan = {n: int(rng.choice(wf.limits.grid())) for n in wf.dag.nodes}
        result = assert_run_identical(
            DagAnalyticExecutor(wf),
            lambda: DagFixedPolicy("fixed-dag", plan),
            requests,
        )
        assert result.columns.order is not None  # completion order

    def test_dag_janus(self, diamond_workflow):
        wf = diamond_workflow
        cfg = ProfilerConfig(
            limits=wf.limits, percentiles=tiny_percentiles(), samples=400
        )
        profiler = Profiler(cfg)
        factory = RngFactory(13).fork("diamond-vec")
        profiles = ProfileSet({
            name: profiler.profile_function(wf.model(name), factory.stream(name))
            for name in wf.dag.nodes
        })
        hints = synthesize_dag_hints(wf, profiles)
        requests = generate_requests(wf, WorkloadConfig(n_requests=40), seed=9)
        assert_run_identical(
            DagAnalyticExecutor(wf),
            lambda: DagJanusPolicy(wf, hints),
            requests,
        )

    def test_strict_off_grid_message(self, diamond_workflow):
        wf = diamond_workflow
        requests = generate_requests(wf, WorkloadConfig(n_requests=3), seed=10)
        executor = DagAnalyticExecutor(wf, clamp_sizes=False)
        with pytest.raises(
            ExperimentError, match=r"size 1234 off-grid for stage A"
        ):
            executor.run(OffGridPolicy(), requests)


class TestColumnarResult:
    def test_outcomes_materialise_lazily(self):
        wf = make_chain_workflow(n=3)
        requests = generate_requests(wf, WorkloadConfig(n_requests=9), seed=12)
        result = AnalyticExecutor(wf).run(WorstCasePolicy(wf), requests)
        assert result._outcomes is None  # summary math never materialises
        result.summary()
        assert result._outcomes is None
        outcomes = result.outcomes
        assert result._outcomes is outcomes
        assert len(outcomes) == 9
        # Materialised rows carry exact Python scalars.
        assert isinstance(outcomes[0].stages[0].size, int)
        assert isinstance(outcomes[0].stages[0].start_ms, float)

    @staticmethod
    def _outcome(request_id, stages):
        return RequestOutcome(
            request_id=request_id, arrival_ms=10.0 * request_id, slo_ms=400.0,
            stages=[StageRecord(*stage) for stage in stages],
        )

    def test_outcome_list_columns_read_each_row_in_its_order(self):
        # Completion order differs per row (a DAG on the DES platform):
        # columns follow the first row, ``order`` restores each row's own.
        outcomes = [
            self._outcome(0, [("A", 1000, 0.0, 50.0), ("B", 2000, 50.0, 90.0),
                              ("C", 1500, 50.0, 300.0)]),
            self._outcome(1, [("A", 1000, 10.0, 40.0), ("C", 1500, 40.0, 80.0),
                              ("B", 2000, 40.0, 500.0)]),
        ]
        result = RunResult(policy_name="p", outcomes=outcomes)
        assert result.outcomes is outcomes
        assert result.columns.functions == ("A", "B", "C")
        assert result.columns.order.tolist() == [[0, 1, 2], [0, 2, 1]]
        assert result.e2e_ms().tolist() == [o.e2e_ms for o in outcomes]
        assert result.slacks().tolist() == [o.slack for o in outcomes]
        assert result.mean_millicore_ms == float(
            np.mean([o.millicore_ms for o in outcomes])
        )
        assert result.columns.to_outcomes() == outcomes

    def test_outcome_list_with_foreign_stages_rejected(self):
        outcomes = [
            self._outcome(0, [("A", 1000, 0.0, 50.0)]),
            self._outcome(1, [("B", 1000, 0.0, 50.0)]),
        ]
        with pytest.raises(ExperimentError, match="do not all run the stages"):
            RunResult(policy_name="p", outcomes=outcomes)

    def test_reordered_keeps_every_row(self, diamond_workflow):
        requests = generate_requests(
            diamond_workflow, WorkloadConfig(n_requests=12), seed=14
        )
        plan = {n: 2000 for n in diamond_workflow.dag.nodes}
        columns = DagAnalyticExecutor(diamond_workflow).run(
            DagFixedPolicy("fixed-dag", plan), requests
        ).columns
        moved = columns.reordered(("D", "C", "B", "A"))
        assert moved.to_outcomes() == columns.to_outcomes()
        assert moved.millicore_ms().tolist() == columns.millicore_ms().tolist()
        single = OutcomeColumns.from_outcomes(columns.to_outcomes()[:1])
        assert single.reordered(single.functions) is single


class TestArrayKernels:
    def test_lookup_many_matches_scalar(self):
        table = CondensedHintsTable(
            suffix_index=0,
            head_function="F",
            starts=np.array([100, 200, 400]),
            ends=np.array([199, 399, 600]),
            sizes=np.array([3000, 2000, 1000]),
            kmax=3000,
        )
        budgets = np.array(
            [-50.0, 0.0, 99.9, 100.0, 150.0, 199.0, 200.0, 399.5, 600.0, 601.0, 1e9]
        )
        sizes, hits = table.lookup_many(budgets)
        for b, size, hit in zip(budgets.tolist(), sizes.tolist(), hits.tolist()):
            ref = table.lookup(b)
            assert (size, hit) == (ref.size, ref.hit), b

    def test_lookup_many_no_clamp_above(self):
        table = CondensedHintsTable(
            suffix_index=0,
            head_function="F",
            starts=np.array([100]),
            ends=np.array([200]),
            sizes=np.array([1500]),
            kmax=3000,
            clamp_above=False,
        )
        sizes, hits = table.lookup_many(np.array([250.0, 150.0]))
        assert sizes.tolist() == [3000, 1500]
        assert hits.tolist() == [False, True]

    @pytest.mark.parametrize("window", [None, 16])
    def test_record_many_matches_scalar(self, window):
        rng = np.random.default_rng(0)
        samples = rng.random(300) > 0.02
        bulk = HitMissSupervisor(min_samples=10, window=window)
        loop = HitMissSupervisor(min_samples=10, window=window)
        bulk.record_many(samples)
        for h in samples:
            loop.record(bool(h))
        assert bulk.hits == loop.hits
        assert bulk.misses == loop.misses
        assert bulk.miss_rate == loop.miss_rate
        assert bulk.should_regenerate == loop.should_regenerate
        assert bulk._notified == loop._notified
        if window is not None:
            assert list(bulk._recent) == list(loop._recent)

    def test_record_many_with_callback_fires_once(self):
        sup = HitMissSupervisor(miss_threshold=0.1, min_samples=5)
        fired = []
        sup.on_regenerate(lambda s: fired.append(s.total))
        sup.record_many(np.array([False] * 20))
        assert fired == [5]  # fired at the first crossing, not at the end

    def test_decide_many_latency_log_one_entry_per_decision(
        self, small_workflow, small_profiles, small_budget
    ):
        policy = janus(small_workflow, small_profiles, budget=small_budget)
        adapter: JanusAdapter = policy.adapter
        budgets = [500.0, 900.0, -10.0]
        sizes, hits = adapter.decide_many(0, np.array(budgets))
        assert sizes.shape == (3,)
        assert len(adapter.decision_latencies_ms()) == 3
        for b, size, hit in zip(budgets, sizes, hits):
            ref = adapter.hints.table_for_stage(0).lookup(b)
            assert (int(size), bool(hit)) == (ref.size, ref.hit)

    def test_profile_latencies_matches_scalar(self, small_profiles):
        prof = small_profiles["F0"]
        ks = prof.limits.grid()
        got = prof.latencies(prof.percentiles.anchor, ks)
        want = [prof.latency(prof.percentiles.anchor, int(k)) for k in ks]
        assert got.tolist() == want

    def test_profile_latencies_off_grid_rejected(self, small_profiles):
        prof = small_profiles["F0"]
        with pytest.raises(
            ProfileError, match="size 1234 not on the profiled grid"
        ):
            prof.latencies(prof.percentiles.anchor, np.array([1000, 1234]))

    def test_execution_times_validation(self):
        batchable = make_function("F")
        frozen = make_function("F", batchable=False)
        ones = np.ones(3)
        unit_conc = np.ones(3, dtype=np.int64)
        with pytest.raises(FunctionModelError, match="millicores must be > 0"):
            batchable.execution_times(
                np.array([1000, 0, 2000]), ones, ones, ones, unit_conc
            )
        with pytest.raises(FunctionModelError, match="not batchable"):
            frozen.execution_times(
                np.full(3, 1000), ones, ones, ones, np.array([1, 2, 1])
            )
        with pytest.raises(
            FunctionModelError, match="concurrency must be >= 1"
        ):
            batchable.execution_times(
                np.full(3, 1000), ones, ones, ones, np.array([1, 0, 1])
            )

    @pytest.mark.parametrize("gamma", [0.0, 0.37])
    def test_execution_times_broadcast_matches_scalar(self, gamma):
        # (R, 1) per-invocation columns against a (K,) size grid, as the
        # Optimal oracle evaluates them: every cell equals the scalar call.
        model = make_function("F", gamma=gamma, sigma=0.2)
        rng = np.random.default_rng(5)
        worksets, noise_zs, _ = model.sample_dynamics(rng, rng, 9)
        dyns = [
            InvocationDynamics(w, z, 1.0 + i / 7)
            for i, (w, z) in enumerate(zip(worksets.tolist(), noise_zs.tolist()))
        ]
        concs = [1 + i % 3 for i in range(9)]
        ks = np.arange(1000, 3001, 100)
        times = model.execution_times(
            ks,
            np.array([d.workset for d in dyns])[:, None],
            np.array([d.noise_z for d in dyns])[:, None],
            np.array([d.interference for d in dyns])[:, None],
            np.array(concs)[:, None],
        )
        assert times.shape == (9, ks.size)
        assert times.tolist() == [
            [model.execution_time(int(k), d, c) for k in ks]
            for d, c in zip(dyns, concs)
        ]
        assert model.workset_factors(np.ones((2, 1))).shape == (2, 1)

    def test_clamp_and_contains_arrays_match_scalar(self):
        limits = ResourceLimits(kmin=1000, kmax=3000, step=100)
        ks = np.arange(800, 3300, 7)
        assert limits.clamp_array(ks).tolist() == [
            limits.clamp(int(k)) for k in ks
        ]
        assert limits.contains_array(ks).tolist() == [
            limits.contains(int(k)) for k in ks
        ]
