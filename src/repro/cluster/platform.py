"""The serverless platform facade: DES-backed workflow serving.

Ties the substrate together — VMs, warm pools, interference, accounting and
an optional horizontal autoscaler — and executes workflow requests as
simulation processes. Unlike the analytic backend, interference here emerges
from *actual co-location*: concurrently busy instances of the same function
on one VM slow each other down per the calibrated model, so open-loop load
and batching effects are captured.

The platform is a first-class execution backend: it satisfies the
:class:`~repro.runtime.registry.Executor` protocol and registers itself as
``"cluster"``, so :class:`~repro.api.Session`, :func:`run_policies` and the
scenario sweep engine can serve any matrix cell on the DES cluster by name.
Run-lifecycle semantics match the analytic executors: every
:meth:`ServerlessPlatform.run` call serves on fresh simulator/pool/
autoscaler/accounting state (requests start at t = 0, counters at zero),
and branching workflows execute *every* DAG node as concurrent simulation
processes joined per node — not just the critical-path chain.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass, fields as _dc_fields, replace

from ..errors import ClusterError
from ..functions.model import InvocationDynamics
from ..knobs import at_least, check, knob
from ..policies.base import SizingPolicy
from ..runtime.registry import register_executor
from ..runtime.results import RunResult, collect_policy_extras
from ..sim.engine import Simulator
from ..sim.process import Process
from ..types import Millicores
from ..workflow.catalog import Workflow
from ..workflow.request import RequestOutcome, StageRecord, WorkflowRequest
from ..functions.model import Resource
from .accounting import ClusterAccounting
from .autoscaler import HorizontalAutoscaler
from .faults import (
    CLUSTER_FAULT_KINDS,
    RETRY_BACKOFF_MS,
    FaultInjector,
    FaultSpec,
    FaultStats,
    compile_fault_schedule,
)
from .interference import InterferenceModel
from .pod import Pod
from .pool import PoolManager
from .vm import VirtualMachine

__all__ = ["ClusterConfig", "ServerlessPlatform", "cluster_executor"]

#: Fault schedules extend this far past the last arrival so faults keep
#: landing while the tail of the request stream drains.
FAULT_HORIZON_MARGIN_MS = 60_000.0


@dataclass(frozen=True)
class ClusterConfig:
    """Cluster dimensions and policies.

    The default 52-core single node mirrors the paper's serverless testbed
    (Xeon Platinum 8269CY, 52 physical cores) split into 13-core VMs.
    """

    n_vms: int = knob(at_least(1), 4)
    vm_capacity_millicores: Millicores = knob(at_least(1), 13_000)
    warm_pool_size: int = knob(PoolManager.KNOBS["warm_pool_size"], 2)
    #: Idle pods expire after this TTL (None = keep forever).
    keepalive_ms: float | None = knob(PoolManager.KNOBS["keepalive_ms"], None)
    autoscale: bool = True
    autoscaler_interval_ms: float = knob(
        HorizontalAutoscaler.KNOBS["interval_ms"], 1000.0
    )
    #: Warm-target floor the autoscaler may decay to (0 = scale to zero).
    min_warm: int = knob(HorizontalAutoscaler.KNOBS["min_warm"], 1)
    colocate_same_function: bool = True

    def __post_init__(self) -> None:
        # Count-like fields are genuine integers (numpy ints too): a float
        # n_vms would crash `range()` deep inside a pool worker and a float
        # warm_pool_size would silently truncate.
        check(self, ClusterError)

    def check_workflow(self, workflow: Workflow) -> None:
        """Raise unless a VM can hold ``workflow``'s largest pod.

        Pods are sized up to ``limits.kmax``; on a smaller VM such a pod
        would stay pending forever and the run would never end.
        """
        if workflow.limits.kmax > self.vm_capacity_millicores:
            raise ClusterError(
                f"vm_capacity_millicores={self.vm_capacity_millicores} is "
                f"below workflow {workflow.name!r}'s largest pod "
                f"(kmax={workflow.limits.kmax} mc)"
            )

    def with_overrides(self, **overrides: _t.Any) -> "ClusterConfig":
        """Copy with field overrides; unknown field names raise.

        Fields come from ``self``, so subclasses adding knobs stay
        overridable.
        """
        known = {f.name for f in _dc_fields(self)}
        unknown = sorted(set(overrides) - known)
        if unknown:
            raise ClusterError(
                f"unknown {type(self).__name__} fields {unknown}; "
                f"known: {sorted(known)}"
            )
        return replace(self, **overrides)


class _ServingPlatform:
    """Shared DES serving core for single- and multi-tenant platforms.

    Subclasses carry a :class:`ClusterConfig` and call
    :meth:`_build_substrate` per run to get fresh simulator / VM / pool /
    accounting / autoscaler state. The core serves one
    :class:`WorkflowRequest` end to end: sequentially along a chain, or —
    for branching workflows — as one simulation process per DAG node, each
    waiting on all its predecessors, so sibling branches genuinely overlap
    on the cluster and contend for pods.
    """

    config: ClusterConfig
    sim: Simulator
    pool: PoolManager
    interference: InterferenceModel
    accounting: ClusterAccounting
    autoscaler: HorizontalAutoscaler
    fault_spec: FaultSpec | None
    fault_seed: int
    fault_stats: FaultStats | None
    fault_injector: FaultInjector | None

    def _init_faults(
        self, faults: FaultSpec | None, fault_seed: int
    ) -> None:
        """Validate and pin the platform's fault configuration.

        ``storm`` never reaches the cluster (the scenario layer rewrites
        the arrival process instead), and ``crash`` on a single-VM fleet
        would leave acquisitions polling a dead cluster forever — both are
        configuration errors, rejected here.
        """
        if faults is not None:
            if faults.kind not in CLUSTER_FAULT_KINDS:
                raise ClusterError(
                    f"fault kind {faults.kind!r} is arrival-side; the "
                    f"cluster platform injects {CLUSTER_FAULT_KINDS}"
                )
            if faults.kind == "crash" and self.config.n_vms < 2:
                raise ClusterError(
                    "crash fault needs n_vms >= 2: with the only VM down "
                    "permanently, pending pods would never place"
                )
        self.fault_spec = faults
        self.fault_seed = int(fault_seed)
        self.fault_stats = None
        self.fault_injector = None

    def _start_faults(
        self, requests: _t.Iterable[WorkflowRequest]
    ) -> None:
        """Compile and launch this run's fault schedule (after substrate).

        The horizon is derived from the (deterministic) request stream, so
        (spec, fault_seed, fleet, stream) -> schedule stays a pure
        function and every backend injects the bit-identical faults.
        """
        self.fault_stats = None
        self.fault_injector = None
        if self.fault_spec is None:
            return
        horizon_ms = (
            max(r.arrival_ms for r in requests) + FAULT_HORIZON_MARGIN_MS
        )
        schedule = compile_fault_schedule(
            self.fault_spec, self.fault_seed, len(self.vms), horizon_ms
        )
        self.fault_stats = FaultStats()
        self.fault_injector = FaultInjector(
            self.sim, self.vms, self.pool, schedule, self.fault_stats
        )
        self.fault_injector.start()

    def _build_substrate(
        self, functions: _t.Mapping[str, _t.Any]
    ) -> None:
        """Fresh simulator/VMs/pool/accounting/autoscaler from the config.

        Called per ``run()`` so back-to-back runs are independent: each
        starts at t = 0 with zeroed cold-start/idle/throttle counters and
        a cold autoscaler EWMA, instead of seeing the previous run's clock
        and cumulative statistics.
        """
        self.sim = Simulator()
        self.vms = [
            VirtualMachine(i, self.config.vm_capacity_millicores)
            for i in range(self.config.n_vms)
        ]
        self.pool = PoolManager(
            self.sim,
            self.vms,
            functions,
            warm_pool_size=self.config.warm_pool_size,
            colocate_same_function=self.config.colocate_same_function,
            keepalive_ms=self.config.keepalive_ms,
        )
        self.accounting = ClusterAccounting(self.sim, self.vms)
        self.autoscaler = HorizontalAutoscaler(
            self.sim, self.pool,
            interval_ms=self.config.autoscaler_interval_ms,
            min_warm=self.config.min_warm,
        )
        if self.config.autoscale:
            self.autoscaler.start()

    # -- autoscaler demand signal -------------------------------------------
    def _invocation_started(self, pool_key: str) -> None:
        self.autoscaler.invocation_started(pool_key)

    def _invocation_finished(self, pool_key: str) -> None:
        self.autoscaler.invocation_finished(pool_key)

    # -- one node ------------------------------------------------------------
    def _node(
        self,
        workflow: Workflow,
        policy: SizingPolicy,
        request: WorkflowRequest,
        fname: str,
        pool_key: str,
        start_time: float,
    ):
        """Process body executing one workflow node on the cluster.

        Sizes at the node's start time with the request's elapsed
        wall-clock — the same information a provider-side adapter has —
        then acquires a pod (paying any cold start), executes under the
        realised co-location slowdown, and releases.
        """
        elapsed = self.sim.now - start_time
        size = workflow.limits.clamp(
            policy.size_for_node(fname, request, elapsed)
        )
        model = workflow.model(fname)
        stage_start = self.sim.now
        cold_ms = 0.0
        while True:
            acquire_start = self.sim.now
            pod = yield from self.pool.acquire(pool_key, size)
            cold_ms += self.sim.now - acquire_start
            pod.start_invocation()
            self._invocation_started(pool_key)
            self.accounting.snapshot()
            # Interference from busy same-function neighbours on this VM —
            # plus, under the contention fault, busy pods of *other*
            # functions contending on the same dominant resource.
            n_colo = max(1, pod.vm.colocated_count(pool_key, busy_only=True))
            if (
                self.fault_spec is not None
                and self.fault_spec.kind == "contention"
            ):
                slowdown = self.interference.cross_slowdown(
                    model.dominant_resource,
                    n_colo,
                    self._cross_contenders(
                        pod, pool_key, model.dominant_resource
                    ),
                    self.fault_spec.scale,
                )
            else:
                slowdown = self.interference.slowdown(
                    model.dominant_resource, n_colo
                )
            dyn = request.dynamics_for(fname)
            dyn_q: InvocationDynamics = replace(
                dyn, interference=dyn.interference * slowdown
            )
            exec_ms = model.execution_time(size, dyn_q, request.concurrency)
            # Transient straggler slowdown of the hosting VM.
            vm_slowdown = pod.vm.slowdown
            if vm_slowdown > 1.0:
                exec_ms *= vm_slowdown
                if self.fault_stats is not None:
                    self.fault_stats.straggler_exposure += 1
            fail_ev = (
                self.fault_injector.watch(pod.vm)
                if self.fault_injector is not None
                else None
            )
            if fail_ev is None:
                yield self.sim.timeout(exec_ms)
            else:
                # Race execution against the VM's next failure. The done
                # timeout stays in the heap if it loses — its late firing
                # only hits the already-triggered AnyOf's no-op callback.
                done = self.sim.timeout(exec_ms)
                yield self.sim.any_of([done, fail_ev])
                if not done.processed:
                    # Preempted mid-invocation: the pod dies with its VM;
                    # back off and re-execute on whatever is still up.
                    self._invocation_finished(pool_key)
                    pod.preempt()
                    pod.vm.evict(pod)
                    self.accounting.snapshot()
                    if self.fault_stats is not None:
                        self.fault_stats.retries += 1
                    yield self.sim.timeout(RETRY_BACKOFF_MS)
                    continue
            pod.finish_invocation()
            self._invocation_finished(pool_key)
            self.pool.release(pod)
            self.accounting.snapshot()
            return StageRecord(
                function=fname,
                size=size,
                start_ms=stage_start,
                end_ms=self.sim.now,
                cold_start_ms=cold_ms,
            )

    def _cross_contenders(
        self, pod: Pod, pool_key: str, resource: Resource
    ) -> int:
        """Busy other-function pods on ``pod``'s VM dominated by ``resource``."""
        count = 0
        for neighbour in pod.vm.pods():
            if neighbour.busy and neighbour.function != pool_key:
                model = self.pool.functions.get(neighbour.function)
                if model is not None and model.dominant_resource is resource:
                    count += 1
        return count

    def _dag_node(
        self,
        workflow: Workflow,
        policy: SizingPolicy,
        request: WorkflowRequest,
        fname: str,
        pool_key: str,
        start_time: float,
        predecessors: _t.Sequence[Process],
        stages: list[StageRecord],
    ):
        """Process: wait for every predecessor node, then execute one node."""
        if predecessors:
            yield self.sim.all_of(list(predecessors))
        record = yield from self._node(
            workflow, policy, request, fname, pool_key, start_time
        )
        stages.append(record)

    # -- one request ---------------------------------------------------------
    def _serve_request(
        self,
        workflow: Workflow,
        policy: SizingPolicy,
        request: WorkflowRequest,
        pool_key: _t.Callable[[str], str] = lambda fname: fname,
    ):
        """Simulation process serving one request through the workflow.

        Chains run node after node; DAGs spawn one child process per node
        joined on its predecessors, and the request completes when every
        node (in particular every sink) has finished.
        """
        policy.bind(workflow)
        policy.begin_request(request)
        start_time = self.sim.now
        stages: list[StageRecord] = []
        if workflow.topology == "chain":
            for fname in workflow.chain:
                record = yield from self._node(
                    workflow, policy, request, fname, pool_key(fname),
                    start_time,
                )
                stages.append(record)
        else:
            # dag.nodes is topological, so predecessors' processes exist by
            # the time a node is spawned; a node's process event doubles as
            # its completion signal.
            node_procs: dict[str, Process] = {}
            for fname in workflow.dag.nodes:
                preds = [
                    node_procs[p] for p in workflow.dag.predecessors(fname)
                ]
                node_procs[fname] = self.sim.process(
                    self._dag_node(
                        workflow, policy, request, fname, pool_key(fname),
                        start_time, preds, stages,
                    )
                )
            yield self.sim.all_of(list(node_procs.values()))
            # AllOf treats failed children as completed; surface the first
            # node failure instead of recording a partial outcome.
            for proc in node_procs.values():
                if not proc.ok:
                    raise proc.value
            stages.sort(key=lambda s: (s.end_ms, s.function))
        policy.end_request(request)
        return RequestOutcome(
            request_id=request.request_id,
            arrival_ms=start_time,
            slo_ms=request.slo_ms,
            stages=stages,
        )

    # -- stream plumbing -----------------------------------------------------
    def _hold_until_arrival(self, request: WorkflowRequest, serve_gen):
        """Process: wait for the arrival time, then serve."""
        delay = request.arrival_ms - self.sim.now
        if delay > 0:
            yield self.sim.timeout(delay)
        outcome = yield self.sim.process(serve_gen)
        return outcome

    def _drain(self, procs: _t.Sequence[Process]) -> None:
        """Run until every request completed, surfacing the first failure.

        Runs to the joined event (not heap exhaustion: an autoscaler's
        periodic control loop never terminates on its own). AllOf treats
        failed child processes as completed, so failures are re-raised here
        instead of silently dropping their requests.
        """
        self.sim.run(until=self.sim.all_of(list(procs)))
        for proc in procs:
            if proc.processed and not proc.ok:
                raise proc.value

    def _platform_extras(self) -> dict[str, _t.Any]:
        """Cluster-level diagnostics attached to every result.

        Fault counters appear only when a fault spec is active, so
        fault-free runs keep their result payloads (and cached JSON)
        byte-identical to a build without fault injection.
        """
        extras = {
            "cold_start_rate": self.pool.cold_start_rate,
            "mean_cluster_allocated": self.accounting.mean_allocated(),
            "idle_millicore_ms": self.pool.idle_millicore_ms,
            "throttled": self.pool.throttled,
            "events_processed": self.sim.processed_events,
            "autoscaler_adjustments": self.autoscaler.adjustments,
        }
        if self.fault_stats is not None:
            extras.update(self.fault_stats.as_extras())
        return extras


class ServerlessPlatform(_ServingPlatform):
    """DES execution backend for serverless workflows.

    Satisfies the :class:`~repro.runtime.registry.Executor` protocol;
    registered as ``"cluster"`` (see :func:`cluster_executor`).
    """

    def __init__(
        self,
        workflow: Workflow,
        config: ClusterConfig | None = None,
        interference: InterferenceModel | None = None,
        faults: FaultSpec | None = None,
        fault_seed: int = 0,
    ) -> None:
        self.workflow = workflow
        self.config = config or ClusterConfig()
        self.config.check_workflow(workflow)
        self.interference = interference or InterferenceModel()
        self._init_faults(faults, fault_seed)
        self._outcomes: list[RequestOutcome] = []
        self._reset()

    def _reset(self) -> None:
        self._build_substrate(self.workflow.functions)

    # ------------------------------------------------------------------
    def _serve(self, policy: SizingPolicy, request: WorkflowRequest):
        """Simulation process serving one request (chain or full DAG)."""
        outcome = yield from self._serve_request(self.workflow, policy, request)
        self._outcomes.append(outcome)
        return outcome

    # -- public API -------------------------------------------------------
    def run(
        self,
        policy: SizingPolicy,
        requests: _t.Sequence[WorkflowRequest],
    ) -> RunResult:
        """Serve a request stream to completion and collect outcomes.

        Every call serves on fresh platform state, so identical
        ``run(policy, requests)`` calls return identical outcomes and
        extras regardless of what ran before.
        """
        if not requests:
            raise ClusterError("request stream is empty")
        self._reset()
        self._start_faults(requests)
        self._outcomes = []
        procs = [
            self.sim.process(
                self._hold_until_arrival(request, self._serve(policy, request))
            )
            for request in requests
        ]
        self._drain(procs)
        outcomes = sorted(self._outcomes, key=lambda o: o.request_id)
        extras = self._platform_extras()
        extras.update(collect_policy_extras(policy))
        return RunResult(
            policy_name=policy.name,
            outcomes=outcomes,
            extras=extras,
        )

    def colocation_experiment(
        self,
        function: str,
        n_instances: int,
        size: Millicores,
        samples: int,
        rng,
    ) -> list[float]:
        """Measure mean execution time of ``function`` with ``n_instances``
        busy co-located instances (the Fig. 1c measurement loop).

        Returns per-sample execution times with all instances busy on one VM.
        """
        if n_instances < 1:
            raise ClusterError(f"need >= 1 instance, got {n_instances}")
        model = self.workflow.model(function)
        slowdown = self.interference.slowdown(
            model.dominant_resource, n_instances
        )
        dynamics = model.sample_dynamics(rng, rng, samples, interference=slowdown)
        return model.execution_times(size, *dynamics, 1).tolist()


@register_executor("cluster")
def cluster_executor(
    workflow: Workflow,
    *,
    config: ClusterConfig | None = None,
    interference: InterferenceModel | None = None,
    faults: FaultSpec | None = None,
    fault_seed: int = 0,
    **overrides: _t.Any,
) -> ServerlessPlatform:
    """The ``"cluster"`` executor factory: a DES platform for ``workflow``.

    Accepts a full :class:`ClusterConfig` and/or individual config fields
    as keyword overrides, so callers can write
    ``get_executor("cluster", wf, n_vms=2, autoscale=False)`` or pass
    ``executor_kwargs={"config": ClusterConfig(...)}`` through a
    :class:`~repro.api.Session`. ``faults`` + ``fault_seed`` install a
    deterministic fault schedule (see :mod:`repro.cluster.faults`).
    """
    if overrides:
        base = config or ClusterConfig()
        config = base.with_overrides(**overrides)
    return ServerlessPlatform(
        workflow,
        config=config,
        interference=interference,
        faults=faults,
        fault_seed=fault_seed,
    )
