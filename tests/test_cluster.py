"""Cluster substrate: VMs, pods, pools, interference, platform DES."""

import numpy as np
import pytest

from repro.cluster.accounting import ClusterAccounting
from repro.cluster.autoscaler import HorizontalAutoscaler
from repro.cluster.interference import DEFAULT_COEFFICIENTS, InterferenceModel
from repro.cluster.platform import (
    ClusterConfig,
    ServerlessPlatform,
    cluster_executor,
)
from repro.cluster.pod import Pod, PodState
from repro.cluster.pool import PoolManager
from repro.cluster.vm import VirtualMachine
from repro.errors import ClusterError
from repro.functions.model import Resource
from repro.policies.base import SizingPolicy
from repro.policies.early_binding import FixedPlanPolicy
from repro.sim import Simulator
from repro.traces.workload import WorkloadConfig, generate_requests
from repro.workflow.catalog import Workflow
from repro.workflow.dag import WorkflowDAG
from tests.conftest import make_chain_workflow, make_function, small_limits


class UniformNodePolicy(SizingPolicy):
    """Node-keyed fixed size — covers every DAG node, not just the chain."""

    def __init__(self, size=2000, name="uniform-node"):
        self.name = name
        self.size = size

    def size_for_node(self, node, request, elapsed_ms):
        return self.size


def make_diamond_workflow(slo_ms: float = 8000.0) -> Workflow:
    """A -> (B heavy | C light) -> D; critical path is A, B, D."""
    models = {
        "A": make_function("A", serial=40, parallel=200, sigma=0.0),
        "B": make_function("B", serial=80, parallel=600, sigma=0.0),
        "C": make_function("C", serial=30, parallel=120, sigma=0.0),
        "D": make_function("D", serial=40, parallel=200, sigma=0.0),
    }
    dag = WorkflowDAG(
        ["A", "B", "C", "D"],
        [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")],
    )
    return Workflow(
        name="diamond", dag=dag, functions=models, slo_ms=slo_ms,
        limits=small_limits(),
    )


class TestVM:
    def test_capacity_accounting(self):
        vm = VirtualMachine(0, 10_000)
        pod = Pod("F", 4000, vm)
        vm.place(pod)
        assert vm.allocated == 4000 and vm.free == 6000
        vm.evict(pod)
        assert vm.allocated == 0

    def test_overcommit_rejected(self):
        vm = VirtualMachine(0, 3000)
        vm.place(Pod("F", 2000, vm))
        with pytest.raises(ClusterError):
            vm.place(Pod("F", 2000, vm))

    def test_resize(self):
        vm = VirtualMachine(0, 5000)
        pod = Pod("F", 1000, vm)
        vm.place(pod)
        vm.resize_pod(pod, 3000)
        assert pod.size == 3000 and vm.free == 2000
        with pytest.raises(ClusterError):
            vm.resize_pod(pod, 9000)

    def test_colocation_counts_busy_only(self):
        vm = VirtualMachine(0, 10_000)
        pods = [Pod("F", 1000, vm) for _ in range(3)]
        for p in pods:
            vm.place(p)
            p.warm_up()
        pods[0].start_invocation()
        pods[1].start_invocation()
        assert vm.colocated_count("F", busy_only=True) == 2
        assert vm.colocated_count("F", busy_only=False) == 3
        assert vm.colocated_count("G") == 0

    def test_double_place_rejected(self):
        vm = VirtualMachine(0, 10_000)
        pod = Pod("F", 1000, vm)
        vm.place(pod)
        with pytest.raises(ClusterError):
            vm.place(pod)

    def test_evict_unknown_rejected(self):
        vm = VirtualMachine(0, 10_000)
        with pytest.raises(ClusterError):
            vm.evict(Pod("F", 1000, vm))


class TestPod:
    def test_lifecycle(self):
        vm = VirtualMachine(0, 10_000)
        pod = Pod("F", 1000, vm)
        assert pod.state is PodState.COLD
        pod.warm_up()
        pod.start_invocation()
        assert pod.busy
        pod.finish_invocation()
        assert pod.invocations_served == 1
        pod.kill()
        assert not pod.alive

    def test_invalid_transitions(self):
        vm = VirtualMachine(0, 10_000)
        pod = Pod("F", 1000, vm)
        with pytest.raises(ClusterError):
            pod.start_invocation()  # still cold
        pod.warm_up()
        pod.start_invocation()
        with pytest.raises(ClusterError):
            pod.kill()  # busy pods cannot be reclaimed

    def test_invalid_size(self):
        with pytest.raises(ClusterError):
            Pod("F", 0, VirtualMachine(0, 1000))


class TestInterferenceModel:
    def test_alone_means_no_slowdown(self):
        model = InterferenceModel()
        for r in Resource:
            assert model.slowdown(r, 1) == 1.0

    def test_monotone_in_colocation(self):
        model = InterferenceModel()
        for r in Resource:
            curve = model.curve(r, 6)
            assert all(a <= b for a, b in zip(curve, curve[1:]))

    def test_paper_ordering_at_six(self):
        # Fig 1c: CPU < memory < IO < network at n = 6.
        model = InterferenceModel()
        at6 = {r: model.slowdown(r, 6) for r in Resource}
        assert (at6[Resource.CPU] < at6[Resource.MEMORY]
                < at6[Resource.IO] < at6[Resource.NETWORK])
        assert at6[Resource.NETWORK] == pytest.approx(8.1, abs=0.2)

    def test_invalid_count(self):
        with pytest.raises(ClusterError):
            InterferenceModel().slowdown(Resource.CPU, 0)

    def test_default_coefficients_cover_all_resources(self):
        assert set(DEFAULT_COEFFICIENTS) == set(Resource)


class TestPoolManager:
    def make_pool(self, warm=1):
        sim = Simulator()
        vms = [VirtualMachine(i, 10_000) for i in range(2)]
        fn = make_function("F", sigma=0.0)
        pool = PoolManager(sim, vms, {"F": fn}, warm_pool_size=warm)
        return sim, pool

    def test_cold_start_pays_delay(self):
        sim, pool = self.make_pool()

        def proc():
            pod = yield from pool.acquire("F", 2000)
            return pod

        p = sim.process(proc())
        pod = sim.run(until=p)
        assert sim.now == pytest.approx(pod and make_function("F").cold_start_ms)
        assert pool.cold_starts == 1

    def test_warm_reuse_is_instant(self):
        sim, pool = self.make_pool(warm=1)

        def proc():
            pod = yield from pool.acquire("F", 2000)
            pod.start_invocation()
            pod.finish_invocation()
            pool.release(pod)
            t_release = sim.now
            pod2 = yield from pool.acquire("F", 1000)
            return (pod, pod2, t_release)

        p = sim.process(proc())
        pod, pod2, t_release = sim.run(until=p)
        assert pod is pod2  # same instance, resized
        assert pod2.size == 1000
        assert sim.now == t_release  # no extra delay
        assert pool.warm_hits == 1

    def test_pool_overflow_reclaims(self):
        sim, pool = self.make_pool(warm=0)

        def proc():
            pod = yield from pool.acquire("F", 1000)
            pod.start_invocation()
            pod.finish_invocation()
            pool.release(pod)
            return pod

        p = sim.process(proc())
        pod = sim.run(until=p)
        assert not pod.alive  # warm_pool_size=0: immediately reclaimed
        assert pool.warm_count("F") == 0

    def test_unknown_function_rejected(self):
        sim, pool = self.make_pool()
        with pytest.raises(ClusterError):
            # generator raises on first advance
            sim.run(until=sim.process(pool.acquire("Z", 1000)))

    def test_release_requires_warm(self):
        sim, pool = self.make_pool()

        def proc():
            pod = yield from pool.acquire("F", 1000)
            pod.start_invocation()  # busy
            return pod

        pod = sim.run(until=sim.process(proc()))
        with pytest.raises(ClusterError):
            pool.release(pod)

    def test_cold_start_rate(self):
        sim, pool = self.make_pool()
        assert pool.cold_start_rate == 0.0


class TestPlatform:
    def test_end_to_end_run(self):
        wf = make_chain_workflow(slo_ms=3000.0)
        platform = ServerlessPlatform(
            wf, ClusterConfig(n_vms=2, vm_capacity_millicores=20_000)
        )
        requests = generate_requests(
            wf, WorkloadConfig(n_requests=40, arrival_rate_per_s=5.0), seed=3
        )
        policy = FixedPlanPolicy("fixed", [2000, 2000, 2000])
        result = platform.run(policy, requests)
        assert len(result.outcomes) == 40
        assert result.extras["events_processed"] > 0
        # Outcomes keep request order.
        assert [o.request_id for o in result.outcomes] == list(range(40))

    def test_sequential_load_has_no_interference(self):
        # One request at a time: colocated busy count is 1 -> no slowdown.
        wf = make_chain_workflow(slo_ms=10_000.0)
        platform = ServerlessPlatform(
            wf, ClusterConfig(n_vms=1, vm_capacity_millicores=30_000,
                              autoscale=False)
        )
        requests = generate_requests(
            wf, WorkloadConfig(n_requests=5, arrival_rate_per_s=0.01), seed=3
        )
        policy = FixedPlanPolicy("fixed", [2000, 2000, 2000])
        result = platform.run(policy, requests)
        # Compare with the analytic backend (interference-free by default).
        from repro.runtime.executor import AnalyticExecutor

        analytic = AnalyticExecutor(wf).run(policy, requests)
        for a, b in zip(result.outcomes, analytic.outcomes):
            # Platform adds cold starts; execution portions match.
            exec_platform = sum(
                s.execution_ms - s.cold_start_ms for s in a.stages
            )
            exec_analytic = sum(s.execution_ms for s in b.stages)
            assert exec_platform == pytest.approx(exec_analytic, rel=1e-9)

    def test_concurrent_load_suffers_interference(self):
        wf = make_chain_workflow(slo_ms=10_000.0)
        mk = lambda: generate_requests(
            wf, WorkloadConfig(n_requests=30, arrival_rate_per_s=200.0), seed=3
        )
        policy = FixedPlanPolicy("fixed", [1000, 1000, 1000])
        open_loop = ServerlessPlatform(
            wf, ClusterConfig(n_vms=1, vm_capacity_millicores=40_000)
        ).run(policy, mk())
        sequential = generate_requests(
            wf, WorkloadConfig(n_requests=30, arrival_rate_per_s=0.01), seed=3
        )
        closed = ServerlessPlatform(
            wf, ClusterConfig(n_vms=1, vm_capacity_millicores=40_000)
        ).run(policy, sequential)
        assert open_loop.e2e_ms().mean() > closed.e2e_ms().mean()

    def test_accounting_tracks_allocation(self):
        wf = make_chain_workflow(slo_ms=5000.0)
        platform = ServerlessPlatform(
            wf, ClusterConfig(n_vms=2, vm_capacity_millicores=20_000)
        )
        requests = generate_requests(
            wf, WorkloadConfig(n_requests=10, arrival_rate_per_s=2.0), seed=4
        )
        platform.run(FixedPlanPolicy("f", [2000] * 3), requests)
        assert platform.accounting.millicore_ms() > 0

    def test_empty_stream_rejected(self):
        wf = make_chain_workflow()
        with pytest.raises(ClusterError):
            ServerlessPlatform(wf).run(FixedPlanPolicy("f", [1000] * 3), [])

    def test_colocation_experiment_scales(self, rng):
        wf = make_chain_workflow()
        platform = ServerlessPlatform(wf)
        t1 = np.mean(platform.colocation_experiment("F0", 1, 1000, 50, rng))
        t6 = np.mean(platform.colocation_experiment("F0", 6, 1000, 50, rng))
        assert t6 > t1


class TestRunLifecycle:
    """Regression: each run() serves on fresh simulator/pool/autoscaler
    state — previously the clock, counters and EWMA leaked across calls."""

    def _platform(self):
        wf = make_chain_workflow(slo_ms=5000.0)
        platform = ServerlessPlatform(
            wf, ClusterConfig(n_vms=2, vm_capacity_millicores=20_000)
        )
        requests = generate_requests(
            wf, WorkloadConfig(n_requests=20, arrival_rate_per_s=5.0), seed=9
        )
        return platform, FixedPlanPolicy("fixed", [2000, 2000, 2000]), requests

    def test_repeated_run_is_identical(self):
        platform, policy, requests = self._platform()
        first = platform.run(policy, requests)
        second = platform.run(policy, requests)
        assert [o.e2e_ms for o in first.outcomes] == [
            o.e2e_ms for o in second.outcomes
        ]
        assert [s.cold_start_ms for o in first.outcomes for s in o.stages] == [
            s.cold_start_ms for o in second.outcomes for s in o.stages
        ]
        assert first.extras == second.extras

    def test_second_run_starts_at_time_zero(self):
        platform, policy, requests = self._platform()
        platform.run(policy, requests)
        t_end_first = platform.sim.now
        second = platform.run(policy, requests)
        # Fresh clock: the first outcome of the second run is served at its
        # arrival time, not appended after the first run's horizon.
        assert second.outcomes[0].arrival_ms == requests[0].arrival_ms
        assert platform.sim.now <= t_end_first + 1e-9

    def test_cold_start_rate_not_cumulative(self):
        platform, policy, requests = self._platform()
        first = platform.run(policy, requests)
        second = platform.run(policy, requests)
        # With leaked pool state the second run would report warm hits from
        # the first run's parked pods (a lower cumulative rate).
        assert second.extras["cold_start_rate"] == pytest.approx(
            first.extras["cold_start_rate"]
        )
        assert platform.pool.cold_starts + platform.pool.warm_hits == len(
            requests
        ) * len(policy.plan)

    def test_multi_tenant_autoscale_config_is_honoured(self):
        # Regression: autoscale=True was silently ignored on the shared
        # platform; the shared substrate now wires the same autoscaler as
        # the single-tenant platform, fed per-namespaced-function.
        from repro.cluster.multi import MultiTenantPlatform, TenantJob

        wf = make_chain_workflow(slo_ms=30_000.0)
        platform = MultiTenantPlatform(
            {"a": wf},
            ClusterConfig(n_vms=2, vm_capacity_millicores=40_000,
                          warm_pool_size=1, autoscale=True,
                          autoscaler_interval_ms=100.0),
        )
        jobs = [TenantJob(
            tenant="a",
            policy=FixedPlanPolicy("fa", [1000, 1000, 1000]),
            requests=tuple(generate_requests(
                wf, WorkloadConfig(n_requests=40, arrival_rate_per_s=100.0),
                seed=8,
            )),
        )]
        result = platform.run(jobs)["a"]
        assert result.extras["autoscaler_adjustments"] > 0
        assert platform.pool.warm_pool_size > 1  # scaled with the burst

    def test_multi_tenant_run_reuse_is_identical(self):
        from repro.cluster.multi import MultiTenantPlatform, TenantJob

        wf = make_chain_workflow(slo_ms=8000.0)
        platform = MultiTenantPlatform(
            {"a": wf},
            ClusterConfig(n_vms=2, vm_capacity_millicores=20_000,
                          autoscale=False),
        )
        jobs = [TenantJob(
            tenant="a",
            policy=FixedPlanPolicy("fa", [1500, 1500, 1500]),
            requests=tuple(generate_requests(
                wf, WorkloadConfig(n_requests=15, arrival_rate_per_s=3.0),
                seed=4,
            )),
        )]
        first = platform.run(jobs)["a"]
        second = platform.run(jobs)["a"]
        assert [o.e2e_ms for o in first.outcomes] == [
            o.e2e_ms for o in second.outcomes
        ]
        assert first.extras == second.extras


class TestDagServing:
    """Regression: branching workflows execute *every* DAG node as
    concurrent sim processes — previously `_serve` walked `workflow.chain`,
    silently dropping non-critical-path nodes."""

    def _run_one(self, n_requests=5, rate=0.01, **config):
        wf = make_diamond_workflow()
        platform = ServerlessPlatform(
            wf,
            ClusterConfig(n_vms=2, vm_capacity_millicores=20_000,
                          autoscale=False, **config),
        )
        requests = generate_requests(
            wf, WorkloadConfig(n_requests=n_requests, arrival_rate_per_s=rate),
            seed=6,
        )
        return wf, platform.run(UniformNodePolicy(), requests)

    def test_stage_records_cover_every_dag_node(self):
        wf, result = self._run_one()
        assert wf.topology == "dag"
        assert wf.chain == ["A", "B", "D"]  # what the old code served
        for outcome in result.outcomes:
            assert {s.function for s in outcome.stages} == {"A", "B", "C", "D"}

    def test_sibling_branches_overlap_in_sim_time(self):
        _, result = self._run_one(warm_pool_size=4)
        for outcome in result.outcomes:
            stages = outcome.stage_map()
            b, c = stages["B"], stages["C"]
            assert b.start_ms < c.end_ms and c.start_ms < b.end_ms
            # The join waits for *all* predecessors.
            assert stages["D"].start_ms >= max(b.end_ms, c.end_ms) - 1e-9
            # Stage records are end-time ordered so e2e_ms sees the sink.
            assert outcome.stages[-1].function == "D"
            assert outcome.e2e_ms == stages["D"].end_ms - outcome.arrival_ms

    def test_dag_e2e_is_critical_path_not_sum(self):
        _, result = self._run_one(warm_pool_size=4)
        for outcome in result.outcomes:
            total = sum(s.execution_ms for s in outcome.stages)
            assert outcome.e2e_ms < total  # C ran in B's shadow

    def test_dag_node_failure_surfaces(self):
        wf = make_diamond_workflow()
        platform = ServerlessPlatform(
            wf, ClusterConfig(n_vms=2, vm_capacity_millicores=20_000)
        )

        class ExplodeOffPath(UniformNodePolicy):
            def size_for_node(self, node, request, elapsed_ms):
                if node == "C":  # not on the critical path
                    raise RuntimeError("off-path node exploded")
                return self.size

        requests = generate_requests(wf, WorkloadConfig(n_requests=2), seed=1)
        with pytest.raises(RuntimeError, match="off-path node exploded"):
            platform.run(ExplodeOffPath(), requests)

    def test_dag_run_reuse_is_identical(self):
        wf = make_diamond_workflow()
        platform = ServerlessPlatform(
            wf, ClusterConfig(n_vms=2, vm_capacity_millicores=20_000)
        )
        requests = generate_requests(
            wf, WorkloadConfig(n_requests=8, arrival_rate_per_s=4.0), seed=2
        )
        policy = UniformNodePolicy()
        first = platform.run(policy, requests)
        second = platform.run(policy, requests)
        assert [o.e2e_ms for o in first.outcomes] == [
            o.e2e_ms for o in second.outcomes
        ]
        assert first.extras == second.extras


class TestClusterExecutorRegistration:
    def test_registered_under_cluster(self):
        from repro.runtime.registry import executor_names, get_executor

        assert "cluster" in executor_names()
        wf = make_chain_workflow()
        backend = get_executor("cluster", wf, n_vms=2, autoscale=False)
        assert isinstance(backend, ServerlessPlatform)
        assert backend.config.n_vms == 2 and backend.config.autoscale is False

    def test_factory_merges_config_and_overrides(self):
        wf = make_chain_workflow()
        base = ClusterConfig(n_vms=3, warm_pool_size=5)
        backend = cluster_executor(wf, config=base, keepalive_ms=250.0)
        assert backend.config.n_vms == 3
        assert backend.config.warm_pool_size == 5
        assert backend.config.keepalive_ms == 250.0

    def test_unknown_config_field_rejected(self):
        wf = make_chain_workflow()
        with pytest.raises(ClusterError, match="unknown ClusterConfig"):
            cluster_executor(wf, n_vmz=2)

    def test_count_fields_require_integers(self):
        # Genuine-integer validation: floats fail fast (no mid-sweep range()
        # crash, no silent warm_pool_size truncation), while integer-like
        # numpy values keep working.
        assert ClusterConfig(n_vms=np.int64(3)).n_vms == 3
        for bad in (dict(n_vms=4.0), dict(warm_pool_size=2.5),
                    dict(min_warm=1.5), dict(n_vms=True)):
            with pytest.raises(ClusterError, match="must be an integer"):
                ClusterConfig(**bad)

    def test_min_warm_reaches_the_autoscaler(self):
        wf = make_chain_workflow()
        backend = cluster_executor(wf, min_warm=0)
        assert backend.autoscaler.min_warm == 0
        with pytest.raises(ClusterError, match="min_warm"):
            cluster_executor(wf, min_warm=-1)

    def test_satisfies_executor_protocol(self):
        from repro.runtime.registry import Executor

        platform = ServerlessPlatform(make_chain_workflow())
        assert isinstance(platform, Executor)


class TestAutoscaler:
    def test_scales_with_demand(self):
        sim = Simulator()
        vms = [VirtualMachine(0, 50_000)]
        fn = make_function("F")
        pool = PoolManager(sim, vms, {"F": fn}, warm_pool_size=1)
        scaler = HorizontalAutoscaler(sim, pool, interval_ms=100.0)
        scaler.start()
        for _ in range(8):
            scaler.invocation_started("F")
        sim.run(until=500.0)
        assert pool.warm_pool_size > 1
        for _ in range(8):
            scaler.invocation_finished("F")
        assert scaler.in_flight("F") == 0

    def test_underflow_rejected(self):
        sim = Simulator()
        pool = PoolManager(
            sim, [VirtualMachine(0, 1000)], {"F": make_function("F")}
        )
        scaler = HorizontalAutoscaler(sim, pool)
        with pytest.raises(ClusterError):
            scaler.invocation_finished("F")

    def test_double_start_rejected(self):
        sim = Simulator()
        pool = PoolManager(
            sim, [VirtualMachine(0, 1000)], {"F": make_function("F")}
        )
        scaler = HorizontalAutoscaler(sim, pool)
        scaler.start()
        with pytest.raises(ClusterError):
            scaler.start()

    def test_invalid_params(self):
        sim = Simulator()
        pool = PoolManager(
            sim, [VirtualMachine(0, 1000)], {"F": make_function("F")}
        )
        with pytest.raises(ClusterError):
            HorizontalAutoscaler(sim, pool, interval_ms=0)
        with pytest.raises(ClusterError):
            HorizontalAutoscaler(sim, pool, headroom=0.5)
        with pytest.raises(ClusterError):
            HorizontalAutoscaler(sim, pool, min_warm=-1)

    def test_scales_down_to_floor_when_idle(self):
        # Regression: the per-function target flooring at 2 (vs the empty
        # fallback of 1) pinned warm targets at 2 forever; idle functions
        # must decay to min_warm so keep-alive sweeps see true idle cost.
        sim = Simulator()
        pool = PoolManager(
            sim, [VirtualMachine(0, 50_000)], {"F": make_function("F")},
            warm_pool_size=1,
        )
        scaler = HorizontalAutoscaler(sim, pool, interval_ms=100.0)
        scaler.start()
        for _ in range(8):
            scaler.invocation_started("F")
        sim.run(until=500.0)
        assert pool.warm_pool_size > 2
        for _ in range(8):
            scaler.invocation_finished("F")
        sim.run(until=5000.0)  # EWMA decays over many idle intervals
        assert pool.warm_pool_size == scaler.min_warm == 1

    def test_min_warm_zero_allows_scale_to_zero(self):
        sim = Simulator()
        pool = PoolManager(
            sim, [VirtualMachine(0, 50_000)], {"F": make_function("F")},
            warm_pool_size=3,
        )
        scaler = HorizontalAutoscaler(sim, pool, interval_ms=100.0, min_warm=0)
        scaler.start()
        sim.run(until=300.0)  # zero demand from the start
        assert pool.warm_pool_size == 0

    def test_min_warm_zero_reachable_after_demand(self):
        # The EWMA decays geometrically and never hits exact zero; without
        # the negligible-demand snap, ceil() of the residue pins the target
        # at 1 forever once a function has served traffic.
        sim = Simulator()
        pool = PoolManager(
            sim, [VirtualMachine(0, 50_000)], {"F": make_function("F")},
            warm_pool_size=1,
        )
        scaler = HorizontalAutoscaler(sim, pool, interval_ms=100.0, min_warm=0)
        scaler.start()
        for _ in range(8):
            scaler.invocation_started("F")
        sim.run(until=500.0)
        assert pool.warm_pool_size > 1
        for _ in range(8):
            scaler.invocation_finished("F")
        sim.run(until=10_000.0)
        assert pool.warm_pool_size == 0

    def test_floor_consistent_with_empty_pool_fallback(self):
        # No registered functions: the fallback target equals min_warm, the
        # same floor the per-function branch uses.
        sim = Simulator()
        pool = PoolManager(
            sim, [VirtualMachine(0, 1000)], {"F": make_function("F")},
            warm_pool_size=4,
        )
        scaler = HorizontalAutoscaler(sim, pool, min_warm=1)
        pool.functions = {}
        scaler._rescale()
        assert pool.warm_pool_size == 1


class TestAccounting:
    def test_snapshot_series(self):
        sim = Simulator()
        vms = [VirtualMachine(0, 10_000)]
        acct = ClusterAccounting(sim, vms)
        acct.snapshot()
        pod = Pod("F", 3000, vms[0])
        vms[0].place(pod)
        sim.timeout(10.0)
        sim.run()
        acct.snapshot()
        assert acct.total_allocated() == 3000
        assert acct.mean_allocated() >= 0


class TestSaturation:
    def test_pending_pods_queue_instead_of_failing(self):
        # A cluster too small for the instantaneous load must queue pending
        # pods (and reclaim idle ones), not error out.
        wf = make_chain_workflow(slo_ms=60_000.0)
        platform = ServerlessPlatform(
            wf,
            ClusterConfig(n_vms=1, vm_capacity_millicores=4000,
                          warm_pool_size=2, autoscale=False),
        )
        requests = generate_requests(
            wf, WorkloadConfig(n_requests=25, arrival_rate_per_s=500.0), seed=5
        )
        result = platform.run(
            FixedPlanPolicy("fat", [2000, 2000, 2000]), requests
        )
        assert len(result.outcomes) == 25
        assert platform.pool.throttled > 0  # someone had to wait

    def test_idle_reclamation_frees_capacity(self):
        sim = Simulator()
        vms = [VirtualMachine(0, 3000)]
        fns = {"A": make_function("A"), "B": make_function("B")}
        pool = PoolManager(sim, vms, fns, warm_pool_size=2)

        def fill_and_switch():
            # Park two warm A pods filling the VM, then ask for a large B pod.
            a1 = yield from pool.acquire("A", 1500)
            a2 = yield from pool.acquire("A", 1500)
            for pod in (a1, a2):
                pod.start_invocation()
                pod.finish_invocation()
                pool.release(pod)
            b = yield from pool.acquire("B", 2000)
            return b

        b = sim.run(until=sim.process(fill_and_switch()))
        assert b.function == "B"
        assert pool.reclaimed >= 1  # parked A pods were evicted

    def test_throttled_wait_reclaims_pod_parked_mid_wait(self):
        # The pending-pod loop must re-run idle reclamation on every retry:
        # a pod parked *after* the contender started waiting is reclaimed
        # from inside the loop, releasing the capacity the contender needs.
        sim = Simulator()
        vms = [VirtualMachine(0, 3000)]
        fns = {"A": make_function("A", sigma=0.0),
               "B": make_function("B", sigma=0.0)}
        pool = PoolManager(sim, vms, fns, warm_pool_size=2)

        def holder():
            pod = yield from pool.acquire("A", 2000)
            pod.start_invocation()
            yield sim.timeout(200.0)
            pod.finish_invocation()
            pool.release(pod)  # parks; the 2000 mc reservation persists

        def contender():
            yield from pool.acquire("B", 2000)
            return sim.now

        sim.process(holder())
        contender_proc = sim.process(contender())
        t_acquired = sim.run(until=contender_proc)
        assert pool.throttled > 0  # had to poll while the VM was full
        assert pool.reclaimed == 1  # parked A pod evicted mid-wait
        # Acquired only after the holder released (500 ms cold start +
        # 200 ms execution) plus B's own cold start.
        assert t_acquired >= 700.0

    def test_failed_request_process_surfaces(self):
        # Platform.run must propagate process failures, not drop requests.
        wf = make_chain_workflow()
        platform = ServerlessPlatform(wf)

        class ExplodingPolicy(FixedPlanPolicy):
            def size_for_stage(self, stage_index, request, elapsed_ms):
                raise RuntimeError("policy exploded")

        requests = generate_requests(wf, WorkloadConfig(n_requests=2), seed=1)
        with pytest.raises(RuntimeError, match="policy exploded"):
            platform.run(ExplodingPolicy("boom", [1000] * 3), requests)


class TestMultiTenantPlatform:
    def _setup(self, n=25, rate=2.0, config=None,
               plans=([1500, 1500, 1500], [1000, 1000])):
        from repro.cluster.multi import MultiTenantPlatform, TenantJob

        wf_a = make_chain_workflow(slo_ms=8000.0)
        # Second tenant gets structurally distinct function names.
        from repro.workflow.catalog import Workflow
        from repro.workflow.chain import chain_dag

        models = {f"G{i}": make_function(f"G{i}", serial=30, parallel=150,
                                         sigma=0.06, gamma=0.1)
                  for i in range(2)}
        wf_b = Workflow(
            name="chainB", dag=chain_dag(list(models)), functions=models,
            slo_ms=5000.0, limits=wf_a.limits,
        )
        platform = MultiTenantPlatform(
            {"a": wf_a, "b": wf_b},
            config or ClusterConfig(n_vms=2, vm_capacity_millicores=20_000,
                                    warm_pool_size=2, autoscale=False),
        )
        jobs = [
            TenantJob(
                tenant="a",
                policy=FixedPlanPolicy("fa", plans[0]),
                requests=tuple(generate_requests(
                    wf_a, WorkloadConfig(n_requests=n, arrival_rate_per_s=rate),
                    seed=1,
                )),
            ),
            TenantJob(
                tenant="b",
                policy=FixedPlanPolicy("fb", plans[1]),
                requests=tuple(generate_requests(
                    wf_b, WorkloadConfig(n_requests=n, arrival_rate_per_s=rate),
                    seed=2,
                )),
            ),
        ]
        return platform, jobs

    def test_both_tenants_complete(self):
        platform, jobs = self._setup()
        results = platform.run(jobs)
        assert set(results) == {"a", "b"}
        assert len(results["a"].outcomes) == 25
        assert len(results["b"].outcomes) == 25

    def test_tenant_isolation_of_functions(self):
        platform, jobs = self._setup()
        platform.run(jobs)
        # Namespaced pools: tenant a's functions never share warm pods with b.
        assert set(platform.pool.functions) == {
            "a:F0", "a:F1", "a:F2", "b:G0", "b:G1",
        }

    def test_duplicate_tenant_rejected(self):
        from repro.cluster.multi import MultiTenantPlatform, TenantJob
        from repro.errors import ClusterError as CE

        platform, jobs = self._setup()
        with pytest.raises(CE):
            platform.run([jobs[0], jobs[0]])

    def test_unknown_tenant_rejected(self):
        from repro.cluster.multi import TenantJob
        from repro.errors import ClusterError as CE

        platform, jobs = self._setup()
        rogue = TenantJob(tenant="ghost", policy=jobs[0].policy,
                          requests=jobs[0].requests)
        with pytest.raises(CE):
            platform.run([rogue])

    def test_empty_jobs_rejected(self):
        from repro.errors import ClusterError as CE

        platform, _ = self._setup()
        with pytest.raises(CE):
            platform.run([])

    def test_warm_pod_unusable_when_vm_full(self):
        # Regression: a parked pod whose VM lacks resize headroom must be
        # skipped (cold-start elsewhere), not crash the acquisition.
        sim = Simulator()
        vms = [VirtualMachine(0, 2500), VirtualMachine(1, 10_000)]
        fn = make_function("F", sigma=0.0)
        blocker = make_function("B", sigma=0.0)
        pool = PoolManager(sim, vms, {"F": fn, "B": blocker},
                           warm_pool_size=2, colocate_same_function=True)

        def scenario():
            # Park a 1000mc F pod on VM0, then fill VM0 with a busy B pod.
            f1 = yield from pool.acquire("F", 1000)
            f1.start_invocation(); f1.finish_invocation()
            pool.release(f1)
            b = yield from pool.acquire("B", 1500)
            b.start_invocation()
            # VM0 free = 0; upsizing the parked F pod to 2500 is impossible
            # there, so the pool must cold-start on VM1.
            f2 = yield from pool.acquire("F", 2500)
            return (f1, f2)

        f1, f2 = sim.run(until=sim.process(scenario()))
        assert f2.vm.vm_id == 1
        assert f1 is not f2


class TestKeepAlive:
    def _pool(self, keepalive_ms):
        sim = Simulator()
        vms = [VirtualMachine(0, 10_000)]
        fn = make_function("F", sigma=0.0)
        pool = PoolManager(sim, vms, {"F": fn}, warm_pool_size=3,
                           keepalive_ms=keepalive_ms)
        return sim, pool

    def _use_once(self, sim, pool, size=1000):
        def proc():
            pod = yield from pool.acquire("F", size)
            pod.start_invocation()
            pod.finish_invocation()
            pool.release(pod)
            return pod

        return sim.run(until=sim.process(proc()))

    def test_ttl_zero_never_parks(self):
        sim, pool = self._pool(keepalive_ms=0.0)
        pod = self._use_once(sim, pool)
        assert not pod.alive
        assert pool.warm_count("F") == 0

    def test_expired_pod_forces_cold_start(self):
        sim, pool = self._pool(keepalive_ms=100.0)
        self._use_once(sim, pool)
        assert pool.warm_count("F") == 1
        sim.timeout(500.0)
        sim.run()  # idle beyond the TTL
        pod2 = self._use_once(sim, pool)
        assert pool.expired == 1
        assert pool.cold_starts == 2  # second acquisition was cold again

    def test_within_ttl_reuses(self):
        sim, pool = self._pool(keepalive_ms=10_000.0)
        first = self._use_once(sim, pool)
        second = self._use_once(sim, pool)
        assert first is second
        assert pool.warm_hits == 1

    def test_idle_accounting_grows_with_park_time(self):
        sim, pool = self._pool(keepalive_ms=None)
        self._use_once(sim, pool, size=2000)
        sim.timeout(1000.0)
        sim.run()
        self._use_once(sim, pool, size=2000)
        # Parked 2000 mc for ~1000 ms -> ~2e6 millicore-ms.
        assert pool.idle_millicore_ms == pytest.approx(2_000 * 1000.0, rel=0.05)

    def test_negative_ttl_rejected(self):
        with pytest.raises(ClusterError):
            self._pool(keepalive_ms=-1.0)

    def test_infinite_ttl_default_parks_forever(self):
        sim, pool = self._pool(keepalive_ms=None)
        self._use_once(sim, pool)
        sim.timeout(1e9)
        sim.run()
        assert pool.warm_count("F") == 1


class TestInterferenceCalibration:
    """Fig 1c endpoints at n = 6, pinned numerically (not just ordered)."""

    def test_fig1c_endpoints_at_six(self):
        model = InterferenceModel()
        expected = {
            Resource.CPU: 1.60,
            Resource.MEMORY: 3.50,
            Resource.IO: 5.50,
            Resource.NETWORK: 8.10,
        }
        for resource, value in expected.items():
            assert model.slowdown(resource, 6) == pytest.approx(value)

    def test_cross_reduces_to_same_function_curve(self):
        model = InterferenceModel()
        for resource in Resource:
            for n in range(1, 7):
                assert model.cross_slowdown(resource, n, 0) == pytest.approx(
                    model.slowdown(resource, n)
                )

    def test_cross_monotone_in_neighbours_and_scale(self):
        model = InterferenceModel()
        for resource in Resource:
            curve = [model.cross_slowdown(resource, 2, o) for o in range(5)]
            assert all(a < b for a, b in zip(curve, curve[1:]))
            by_scale = [
                model.cross_slowdown(resource, 2, 2, scale=s)
                for s in (0.0, 0.25, 0.5, 1.0)
            ]
            assert all(a < b for a, b in zip(by_scale, by_scale[1:]))

    def test_cross_neighbour_weighs_scale_of_a_same_function_one(self):
        model = InterferenceModel()
        # One other-function neighbour at scale=1 contends exactly like a
        # same-function one; at scale=0.5 it sits strictly between.
        for resource in Resource:
            full = model.cross_slowdown(resource, 1, 1, scale=1.0)
            assert full == pytest.approx(model.slowdown(resource, 2))
            half = model.cross_slowdown(resource, 1, 1, scale=0.5)
            assert model.slowdown(resource, 1) < half < full

    def test_cross_validation(self):
        model = InterferenceModel()
        with pytest.raises(ClusterError):
            model.cross_slowdown(Resource.CPU, 0, 1)
        with pytest.raises(ClusterError):
            model.cross_slowdown(Resource.CPU, 1, -1)
        with pytest.raises(ClusterError):
            model.cross_slowdown(Resource.CPU, 1, 1, scale=-0.1)


class TestVMFaultSurface:
    def test_down_vm_refuses_placement(self):
        vm = VirtualMachine(0, 10_000)
        assert vm.fits(1000)
        vm.up = False
        assert not vm.fits(1000)
        vm.up = True
        assert vm.fits(1000)

    def test_capacity_accounting_across_failure_cycles(self):
        vm = VirtualMachine(0, 10_000)
        for _ in range(3):
            pod = Pod("F", 4000, vm)
            vm.place(pod)
            vm.up = False  # eviction off a downed VM must still free cores
            vm.evict(pod)
            assert vm.allocated == 0 and vm.free == 10_000
            vm.up = True

    def test_slowdown_defaults_to_unity(self):
        vm = VirtualMachine(0, 10_000)
        assert vm.up and vm.slowdown == 1.0


class TestPodPreempt:
    def _busy_pod(self):
        vm = VirtualMachine(0, 10_000)
        pod = Pod("F", 1000, vm)
        vm.place(pod)
        pod.warm_up()
        pod.start_invocation()
        return pod

    def test_busy_to_dead(self):
        pod = self._busy_pod()
        pod.preempt()
        assert pod.state is PodState.DEAD and not pod.alive

    def test_preempt_requires_busy(self):
        vm = VirtualMachine(0, 10_000)
        pod = Pod("F", 1000, vm)
        pod.warm_up()
        with pytest.raises(ClusterError):
            pod.preempt()

    def test_kill_still_refuses_busy(self):
        # `preempt` is the only sanctioned way to lose in-flight work.
        with pytest.raises(ClusterError):
            self._busy_pod().kill()


class TestPoolFaultPaths:
    def _park_one(self, warm=2):
        sim = Simulator()
        vms = [VirtualMachine(i, 10_000) for i in range(2)]
        fn = make_function("F", sigma=0.0)
        pool = PoolManager(sim, vms, {"F": fn}, warm_pool_size=warm)
        parked = []

        def proc():
            pod = yield from pool.acquire("F", 2000)
            pod.start_invocation()
            yield sim.timeout(10.0)
            pod.finish_invocation()
            pool.release(pod)
            parked.append(pod)

        sim.process(proc())
        sim.run()
        return sim, pool, parked[0]

    def test_evict_parked_on_clears_and_frees(self):
        sim, pool, pod = self._park_one()
        vm = pod.vm
        assert pool.warm_count("F") == 1 and vm.allocated == pod.size
        assert pool.evict_parked_on(vm) == 1
        assert pool.warm_count("F") == 0 and vm.allocated == 0
        assert pod.state is PodState.DEAD
        # Idempotent: nothing left to evict.
        assert pool.evict_parked_on(vm) == 0

    def test_parked_pod_on_down_vm_never_reused(self):
        sim, pool, pod = self._park_one()
        pod.vm.up = False
        acquired = []

        def proc():
            fresh = yield from pool.acquire("F", 2000)
            acquired.append(fresh)

        sim.process(proc())
        sim.run()
        assert acquired[0].vm is not pod.vm
        assert pool.cold_starts == 2  # the down VM's warm pod was skipped

    def test_release_onto_down_vm_evicts_instead_of_parking(self):
        from repro.cluster.faults import FaultStats

        sim = Simulator()
        vms = [VirtualMachine(i, 10_000) for i in range(2)]
        fn = make_function("F", sigma=0.0)
        pool = PoolManager(sim, vms, {"F": fn}, warm_pool_size=2)
        pool.fault_stats = FaultStats()

        def proc():
            pod = yield from pool.acquire("F", 2000)
            pod.start_invocation()
            yield sim.timeout(10.0)
            pod.finish_invocation()
            pod.vm.up = False  # fails in the same instant the work finishes
            pool.release(pod)
            assert pod.state is PodState.DEAD
            assert pod.vm.allocated == 0

        sim.process(proc())
        sim.run()
        assert pool.warm_count("F") == 0
        assert pool.fault_stats.evictions == 1

    def test_boot_interrupted_by_vm_failure_restarts_elsewhere(self):
        from repro.cluster.faults import FaultStats

        sim = Simulator()
        vms = [VirtualMachine(i, 10_000) for i in range(2)]
        fn = make_function("F", sigma=0.0)  # cold_start_ms > 0
        pool = PoolManager(sim, vms, {"F": fn}, warm_pool_size=1)
        pool.fault_stats = FaultStats()
        acquired = []

        def boot():
            pod = yield from pool.acquire("F", 2000)
            acquired.append(pod)

        def failer():
            # Down the booting pod's VM mid-cold-start.
            yield sim.timeout(fn.cold_start_ms / 2)
            booting = next(vm for vm in vms if vm.allocated > 0)
            booting.up = False
            yield sim.timeout(fn.cold_start_ms * 2)
            booting.up = True

        sim.process(boot())
        sim.process(failer())
        sim.run()
        assert acquired and acquired[0].state is PodState.WARM
        assert acquired[0].vm.up
        assert pool.fault_stats.evictions == 1


class PollingPool(PoolManager):
    """Reference pool: the fixed-interval poll the wait-queue replaced.

    A pending pod re-checks on every ``retry_interval_ms`` tick whether or
    not anything changed. The wait-queue must reproduce it exactly.
    """

    def _wait_for_room(self, function, size):
        vm = None
        while vm is None:
            self.throttled += 1
            yield self.sim.timeout(self.retry_interval_ms)
            self._reclaim_idle(size)
            vm = self._pick_vm(function, size)
        return vm


#: Extras that are diagnostics of the implementation, not of the model.
_UNMODELLED_EXTRAS = ("events_processed", "synthesis_seconds")


def _served(result):
    """Everything a run decided: per-request stages plus modelled extras."""
    stages = [
        (o.request_id, o.arrival_ms,
         [(s.function, s.size, s.start_ms, s.end_ms, s.cold_start_ms)
          for s in o.stages])
        for o in result.outcomes
    ]
    extras = {
        k: v for k, v in result.extras.items() if k not in _UNMODELLED_EXTRAS
    }
    return stages, extras


def _sweep_cell_runs(monkeypatch, pool_cls, **matrix):
    """Serve a one-cell sweep matrix; returns each policy's RunResult."""
    import repro.cluster.platform as platform_module
    from repro.scenarios import ScenarioMatrix
    from repro.scenarios.runner import run_scenario

    runs = {}
    serve = ServerlessPlatform.run

    def capture(self, policy, requests):
        runs[policy.name] = result = serve(self, policy, requests)
        return result

    with monkeypatch.context() as patch:
        patch.setattr(platform_module, "PoolManager", pool_cls)
        patch.setattr(ServerlessPlatform, "run", capture)
        (cell,) = ScenarioMatrix(**matrix).expand()
        run_scenario(cell)
    return runs


def _congested(workflow="IA", arrival="constant@125", n_requests=200, **extra):
    from repro.scenarios.matrix import parse_arrival

    return dict(
        workflows=(workflow,), arrivals=(parse_arrival(arrival),),
        slo_scales=(2.0,), executors=("cluster",),
        policies=("GrandSLAM", "Janus"), n_requests=n_requests,
        samples=400, seed=1, **extra,
    )


def _parity_cells():
    from repro.scenarios.matrix import parse_cluster_config, parse_fault

    return {
        "ia-constant@125": _congested(),
        "ia-poisson@8": _congested(arrival="poisson@8"),
        "media-dag": _congested(
            workflow="media", arrival="poisson@12", n_requests=100
        ),
        "preempt@20:300": _congested(
            n_requests=120, faults=(parse_fault("preempt@20:300"),)
        ),
        "keepalive": _congested(
            arrival="poisson@8", n_requests=150,
            cluster=parse_cluster_config("keepalive_ms=200,min_warm=0"),
        ),
    }


class TestPendingPodWaitQueue:
    """Pending pods sleep until capacity can have changed, then re-check
    on their own grid tick: outputs stay identical to polling."""

    @pytest.mark.parametrize("cell", sorted(_parity_cells()))
    def test_matches_polling_reference(self, monkeypatch, cell):
        matrix = _parity_cells()[cell]
        queued = _sweep_cell_runs(monkeypatch, PoolManager, **matrix)
        polled = _sweep_cell_runs(monkeypatch, PollingPool, **matrix)
        assert list(queued) == list(polled) == ["GrandSLAM", "Janus"]
        for name in queued:
            assert polled[name].extras["throttled"] > 0  # genuinely congested
            assert _served(queued[name]) == _served(polled[name])

    def test_multi_tenant_matches_polling_reference(self, monkeypatch):
        import repro.cluster.platform as platform_module

        platform, jobs = TestMultiTenantPlatform()._setup(
            n=60, rate=40.0, plans=([2500, 1500, 3000], [2000, 1000]),
            config=ClusterConfig(n_vms=2, vm_capacity_millicores=6000,
                                 warm_pool_size=1),
        )

        def serve(pool_cls):
            with monkeypatch.context() as patch:
                patch.setattr(platform_module, "PoolManager", pool_cls)
                return platform.run(jobs)

        queued, polled = serve(PoolManager), serve(PollingPool)
        for tenant in ("a", "b"):
            assert polled[tenant].extras["throttled"] > 0
            assert _served(queued[tenant]) == _served(polled[tenant])

    def test_congested_cell_costs_few_events(self, monkeypatch):
        # Polling cost the Janus cell 366 events per invocation.
        janus = _sweep_cell_runs(monkeypatch, PoolManager, **_congested())[
            "Janus"
        ]
        invocations = sum(len(o.stages) for o in janus.outcomes)
        assert janus.extras["events_processed"] / invocations <= 100

    @staticmethod
    def _contend(pool_cls, up_at):
        """A 2000 mc pod pends while VM 1 is down and VM 0 is full; the
        VM's recovery at ``up_at`` must wake it. Returns (acquired, pool)."""
        from repro.cluster.faults import FaultEvent, FaultInjector, FaultStats

        sim = Simulator()
        vms = [VirtualMachine(i, 3000) for i in range(2)]
        fn = make_function("F", sigma=0.0)
        pool = pool_cls(sim, vms, {"F": fn}, warm_pool_size=0)
        FaultInjector(sim, vms, pool, [
            FaultEvent(0.0, 1, "down", "preempt"),
            FaultEvent(up_at, 1, "up", "preempt"),
        ], FaultStats()).start()

        def holder():
            pod = yield from pool.acquire("F", 3000)
            pod.start_invocation()
            yield sim.timeout(10_000.0)

        def contender():
            pod = yield from pool.acquire("F", 2000)
            return sim.now, pod.vm.vm_id

        sim.process(holder())
        return sim.run(until=sim.process(contender())), pool

    @pytest.mark.parametrize("up_at", [237.5, 250.0])
    def test_vm_recovery_wakes_pending_pod(self, up_at):
        # 250.0 recovers exactly on one of the pod's ticks: the recovery
        # was scheduled long before that tick, so the tick already sees it.
        acquired, pool = self._contend(PoolManager, up_at)
        reference, polled = self._contend(PollingPool, up_at)
        cold = make_function("F").cold_start_ms
        tick = 250.0 if up_at == 250.0 else 240.0
        assert acquired == reference == (tick + cold, 1)
        assert pool.throttled == polled.throttled == tick / 10.0

    @staticmethod
    def _same_tick(pool_cls):
        """Two pods start waiting at t=0, a 3000 mc pod then a 1000 mc one,
        so they share one grid. Releases at 602 and 605 make first the
        small, then the big one fit before their common tick at 610.
        Returns when each acquired its pod."""
        sim = Simulator()
        pool = pool_cls(sim, [VirtualMachine(0, 4000)],
                        {"F": make_function("F", sigma=0.0)},
                        warm_pool_size=0)

        def holder(size, busy_ms):
            pod = yield from pool.acquire("F", size)
            pod.start_invocation()
            yield sim.timeout(busy_ms)
            pod.finish_invocation()
            pool.release(pod)

        def waiter(size):
            yield from pool.acquire("F", size)
            return sim.now

        for size, busy_ms in ((1000, 102.0), (2000, 105.0), (1000, 303.0)):
            sim.process(holder(size, busy_ms))
        big, small = sim.process(waiter(3000)), sim.process(waiter(1000))
        sim.run(until=sim.all_of([big, small]))
        return big.value, small.value

    def test_pods_due_on_one_tick_check_in_queue_order(self):
        # Polling checks the big pod first at 610 (it started waiting
        # first), so it takes the 3000 mc and the small pod waits for the
        # release at 803.
        cold = make_function("F").cold_start_ms
        expected = (610.0 + cold, 810.0 + cold)
        assert self._same_tick(PollingPool) == expected
        assert self._same_tick(PoolManager) == expected

    @staticmethod
    def _shrink(pool_cls):
        """A parked 3000 mc pod shrinks to 1000 on a warm hit while a
        2000 mc pod pends; the freed room must serve the pending pod."""
        sim = Simulator()
        vms = [VirtualMachine(0, 4000)]
        fns = {"A": make_function("A", sigma=0.0),
               "B": make_function("B", sigma=0.0)}
        pool = pool_cls(sim, vms, fns, warm_pool_size=1)

        def holder():
            pod = yield from pool.acquire("A", 3000)
            pod.start_invocation()
            yield sim.timeout(205.0)  # releases at 705, off the B grid
            pod.finish_invocation()
            pool.release(pod)

        def reuser():
            yield sim.timeout(707.0)
            pod = yield from pool.acquire("A", 1000)
            assert pod.size == 1000  # the parked pod, shrunk in place

        def contender():
            yield from pool.acquire("B", 2000)
            return sim.now

        sim.process(holder())
        sim.process(reuser())
        return sim.run(until=sim.process(contender())), pool

    def test_shrinking_warm_hit_serves_pending_pod(self):
        acquired, pool = self._shrink(PoolManager)
        reference, polled = self._shrink(PollingPool)
        assert acquired == reference == 710.0 + make_function("B").cold_start_ms
        assert pool.throttled == polled.throttled == 71
        assert pool.warm_hits == polled.warm_hits == 1
        assert pool.reclaimed == polled.reclaimed == 0


class TestVMCapacityValidation:
    """A VM smaller than a workflow's largest pod used to hang the run."""

    def test_platform_rejects_vm_below_kmax(self):
        wf = make_chain_workflow()
        with pytest.raises(ClusterError, match="vm_capacity_millicores"):
            ServerlessPlatform(wf, ClusterConfig(vm_capacity_millicores=2500))

    def test_multi_tenant_platform_rejects_vm_below_kmax(self):
        from repro.cluster.multi import MultiTenantPlatform

        with pytest.raises(ClusterError, match="'chain3'.*kmax=3000"):
            MultiTenantPlatform(
                {"a": make_chain_workflow()},
                ClusterConfig(vm_capacity_millicores=900),
            )

    @pytest.mark.parametrize("capacity", [900, 2500])
    def test_matrix_rejects_vm_below_kmax(self, capacity):
        from dataclasses import replace

        from repro.errors import ExperimentError
        from repro.scenarios import ScenarioMatrix
        from repro.scenarios.matrix import parse_cluster_config

        cluster = parse_cluster_config(f"vm_capacity_millicores={capacity}")
        with pytest.raises(ExperimentError, match="vm_capacity_millicores") as exc:
            ScenarioMatrix(**_congested(n_requests=5), cluster=cluster)
        assert "'IA'" in str(exc.value) and "kmax=3000" in str(exc.value)
        (cell,) = ScenarioMatrix(**_congested(n_requests=5)).expand()
        with pytest.raises(ExperimentError, match="vm_capacity_millicores"):
            replace(cell, cluster=cluster)

    def test_vm_of_exactly_kmax_runs(self, monkeypatch):
        from repro.scenarios.matrix import parse_cluster_config

        runs = _sweep_cell_runs(
            monkeypatch, PoolManager,
            **_congested(
                n_requests=20,
                cluster=parse_cluster_config("vm_capacity_millicores=3000"),
            ),
        )
        assert all(len(r.outcomes) == 20 for r in runs.values())
