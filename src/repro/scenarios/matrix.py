"""The declarative scenario matrix and its expansion into seeded specs."""

from __future__ import annotations

import functools
import itertools
import typing as _t
from dataclasses import dataclass, field, replace

from ..cluster.faults import CLUSTER_FAULT_KINDS, FaultSpec, parse_fault
from ..cluster.platform import ClusterConfig
from ..errors import ClusterError, ExperimentError, TraceError
from ..fleet.topology import FleetConfig, parse_fleet
from ..knobs import INTEGER, POSITIVE, at_least, check, knob
from ..profiling.profiler import PROFILE_SAMPLES
from ..rng import child_seed
from ..traces.workload import ArrivalSpec
from ..workflow.catalog import Workflow
from .registry import SCENARIO_WORKFLOWS

__all__ = [
    "Scenario",
    "ScenarioMatrix",
    "parse_arrival",
    "parse_cluster_config",
    "parse_fault",
    "parse_fleet",
    "storm_arrival",
]

#: Default policy suite for sweeps: the paper's headline systems.
DEFAULT_SWEEP_POLICIES = ("Optimal", "ORION", "GrandSLAM", "Janus")

#: Executor axis entries with a streaming path (``None`` auto-selects one
#: of the two analytic backends from the workflow's topology).
_STREAMING_EXECUTORS = (None, "analytic", "dag")


def _validate_suite(
    policies: _t.Sequence[str], baseline: str | None
) -> None:
    """Reject unknown policy/baseline names before any cell runs."""
    from ..policies.registry import POLICIES

    unknown = [p for p in policies if p not in POLICIES]
    if unknown:
        raise ExperimentError(
            f"unknown policies {unknown}; known: {POLICIES.names()}"
        )
    if baseline is not None and baseline not in policies:
        raise ExperimentError(
            f"baseline {baseline!r} is not in the policy suite "
            f"{list(policies)}"
        )


def _validate_executor(executor: str | None) -> None:
    """Reject unregistered executor names before any cell runs."""
    from ..runtime.registry import executor_names

    if executor is not None and executor not in executor_names():
        raise ExperimentError(
            f"unknown executor {executor!r}; known: {executor_names()} "
            f"(None auto-selects from the workflow topology)"
        )


def _takes_cluster_config(executor: str | None) -> bool:
    """Whether a backend's factory accepts a ``config`` option.

    A registry capability probe, not a name check, so custom cluster-like
    backends (a multi-tenant wrapper, say) receive the matrix's
    :class:`ClusterConfig` without touching the sweep engine.
    """
    from ..runtime.registry import executor_accepts_option

    return executor is not None and executor_accepts_option(executor, "config")


def _takes_faults(executor: str | None) -> bool:
    """Whether a backend's factory accepts a ``faults`` option.

    Same capability-probe pattern as :func:`_takes_cluster_config`:
    cluster-side fault kinds need a backend that can inject them.
    """
    from ..runtime.registry import executor_accepts_option

    return executor is not None and executor_accepts_option(executor, "faults")


def storm_arrival(base: ArrivalSpec, spec: FaultSpec) -> ArrivalSpec:
    """The effective arrival process of a cell under a ``storm`` fault.

    Storms are arrival-side: instead of touching the cluster, the fault
    rewrites the cell's arrival into the ``"storm"`` kind — the same base
    rate with the flash-crowd window stacked on top. A Poisson base storms
    a flat curve; a diurnal base keeps its swing and period so the crowd
    lands on the busy hour. Other kinds have no meaningful rate curve to
    amplify and are rejected.
    """
    if spec.kind != "storm":
        raise ExperimentError(
            f"storm_arrival requires a storm fault, got {spec.kind!r}"
        )
    if base.kind == "poisson":
        return ArrivalSpec(
            kind="storm",
            rate_per_s=base.rate_per_s,
            amplitude=0.0,
            period_s=base.period_s,
            phase=base.phase,
            storm_multiplier=spec.multiplier,
            storm_fraction=spec.window_fraction,
        )
    if base.kind == "diurnal":
        return ArrivalSpec(
            kind="storm",
            rate_per_s=base.rate_per_s,
            amplitude=base.amplitude,
            period_s=base.period_s,
            phase=base.phase,
            storm_multiplier=spec.multiplier,
            storm_fraction=spec.window_fraction,
        )
    raise ExperimentError(
        f"storm faults amplify a rate curve and need a poisson or diurnal "
        f"arrival, got {base.kind!r}"
    )


@functools.lru_cache(maxsize=64)
def _cached_workflow(name: str, epoch: int) -> Workflow:
    """A registered workflow, built once per registration.

    ``epoch`` keys the cache on the registry's re-registration counter so
    a swapped factory is rebuilt without evicting other names.
    """
    from .registry import scenario_workflow

    return scenario_workflow(name)


def _check_vm_capacity(
    workflows: _t.Iterable[str], cluster: ClusterConfig
) -> None:
    """:meth:`ClusterConfig.check_workflow` at construction, for names."""
    from .registry import workflow_epoch

    for name in workflows:
        try:
            workflow = _cached_workflow(name, workflow_epoch(name))
        except Exception:
            continue  # an unknown or broken workflow fails in its own cell
        try:
            cluster.check_workflow(workflow)
        except ClusterError as exc:
            raise ExperimentError(f"cluster config: {exc}") from exc


#: Relative per-request weight of serving a cell on the DES cluster
#: platform versus the closed-form analytic executors. Discrete-event
#: serving simulates pods, queues and autoscaling per stage, which costs
#: roughly an order of magnitude more wall time per request.
_CLUSTER_COST_FACTOR = 8.0


@dataclass(frozen=True)
class Scenario:
    """One fully specified evaluation cell — picklable and self-contained.

    A scenario names its workflow (resolved through
    :data:`~repro.scenarios.registry.SCENARIO_WORKFLOWS` inside the worker)
    and carries two derived seeds: ``seed`` drives the request streams and
    is unique per cell, ``profile_seed`` drives the profiling campaign and
    is shared by every cell of the same workflow so one campaign serves the
    whole matrix — exactly the paper's "profile once, sweep SLOs" idiom.
    """

    workflow: str
    arrival: ArrivalSpec
    slo_scale: float = knob(POSITIVE)
    tenants: int = knob(at_least(1))
    policies: tuple[str, ...]
    n_requests: int = knob(at_least(1))
    samples: int = knob(PROFILE_SAMPLES)
    seed: int = knob(INTEGER)
    profile_seed: int = knob(INTEGER)
    baseline: str | None = None
    #: Optional pinned synthesis budget ``(tmin_ms, tmax_ms)`` — e.g. the
    #: paper's per-workflow ranges. ``None`` derives the Eq. 3 range from
    #: the profiles. ``tmax`` is extended to the cell's SLO when the SLO
    #: exceeds it (matching ``experiments.common.ia_setup``).
    budget_ms: tuple[int, int] | None = None
    #: Execution backend name (``None`` auto-selects from the topology;
    #: ``"cluster"`` serves the cell on the DES platform). The request
    #: stream's seed is executor-independent, so cells differing only in
    #: backend replay the *same* workload — the apples-to-apples backend
    #: comparison.
    executor: str | None = None
    #: Cluster dimensions for executors that accept a ``config`` (the
    #: ``"cluster"`` backend); requires a non-``None`` ``executor``.
    cluster: ClusterConfig | None = None
    #: Aggregate with bounded-memory streaming estimators instead of
    #: retaining every outcome — the path for cells with very large
    #: ``n_requests``. Latency percentiles in the cell table become P²
    #: estimates; requires an executor with a streaming path (the
    #: analytic chain or DAG backend).
    streaming: bool = False
    #: Fault injection for this cell (``None`` = fault-free). Cluster-side
    #: kinds (preempt/crash/straggler/contention) need an executor whose
    #: factory accepts a ``faults`` option; ``storm`` rewrites the arrival
    #: process instead (see :func:`storm_arrival`) and runs anywhere. The
    #: faults axis is excluded from seed derivation, so a faulted cell
    #: serves the *same* request stream as its fault-free sibling.
    faults: FaultSpec | None = None
    #: Multi-region fleet for this cell (``None`` = single-region). The
    #: fleet axis is excluded from seed derivation like the executor and
    #: faults axes: the home region replays the single-region sibling's
    #: exact request stream, and the extra regions derive their streams
    #: off dedicated ``"region"`` seed labels — common random numbers
    #: across the fleet axis.
    fleet: FleetConfig | None = None

    def __post_init__(self) -> None:
        check(self, ExperimentError)
        if not self.policies:
            raise ExperimentError("scenario requires at least one policy")
        # Scenarios are public API and may be built without a matrix, so
        # name typos must fail here — run_scenario treats every remaining
        # ExperimentError as a legitimately dead cell.
        _validate_suite(self.policies, self.baseline)
        _validate_executor(self.executor)
        if self.cluster is not None and not _takes_cluster_config(self.executor):
            # Must fail at construction: the analytic backends take no
            # config kwarg, so this would otherwise surface as an error
            # from a pool worker mid-sweep.
            raise ExperimentError(
                f"a cluster config requires an executor whose factory "
                f"accepts a 'config' option (e.g. 'cluster'), got "
                f"executor={self.executor!r}"
            )
        if self.cluster is not None:
            _check_vm_capacity((self.workflow,), self.cluster)
        if self.streaming and self.executor not in _STREAMING_EXECUTORS:
            raise ExperimentError(
                f"streaming cells require an analytic backend (executor "
                f"None, 'analytic' or 'dag'), got {self.executor!r}"
            )
        if self.streaming and self.fleet is not None:
            # The fleet runner merges materialised per-region outcome
            # lists; bounded-memory aggregation has no multi-region path.
            raise ExperimentError(
                "streaming cells cannot carry a fleet "
                "(per-region outcomes must be retained for the merge)"
            )
        if self.faults is not None:
            if self.faults.kind in CLUSTER_FAULT_KINDS:
                if not _takes_faults(self.executor):
                    raise ExperimentError(
                        f"fault {self.faults.label!r} is injected by the "
                        f"cluster platform and requires an executor whose "
                        f"factory accepts a 'faults' option (e.g. "
                        f"'cluster'), got executor={self.executor!r}"
                    )
                if (
                    self.faults.kind == "crash"
                    and self.cluster is not None
                    and self.cluster.n_vms < 2
                ):
                    raise ExperimentError(
                        f"crash fault needs n_vms >= 2, got "
                        f"n_vms={self.cluster.n_vms}"
                    )
            elif self.faults.kind == "region-failover":
                # A region outage needs a fleet with survivors to drain
                # traffic to — fail at construction, not in a worker.
                if self.fleet is None or len(self.fleet.regions) < 2:
                    raise ExperimentError(
                        f"fault {self.faults.label!r} takes a whole region "
                        f"down and requires a fleet with >= 2 regions, got "
                        f"fleet={self.fleet.label if self.fleet else None!r}"
                    )
            else:
                # Storm: validate the arrival transform at construction so
                # an incompatible base arrival never dies in a worker.
                try:
                    storm_arrival(self.arrival, self.faults)
                except (TraceError, ClusterError) as exc:
                    raise ExperimentError(f"faults axis: {exc}") from exc

    def effective_arrival(self) -> ArrivalSpec:
        """The arrival process this cell actually serves.

        A storm fault rewrites the arrival into the flash-crowd kind;
        everything else passes the declared arrival through.
        """
        if self.faults is not None and self.faults.kind == "storm":
            return storm_arrival(self.arrival, self.faults)
        return self.arrival

    def cost_estimate(self) -> float:
        """Relative evaluation cost of this cell, for schedulers.

        Serving work scales with the request count (``n_requests`` per
        tenant, ``tenants`` merged streams), the number of workflow nodes
        each request traverses, the policies served over the shared
        stream, and the executor: DES cluster cells pay a large
        discrete-event premium over the analytic backends. The estimate
        is unitless and deterministic — the pool and distributed backends
        only *order* dispatch by it, so a misestimate costs wall time, never
        correctness.
        """
        from .registry import workflow_epoch

        try:
            nodes = _cached_workflow(
                self.workflow, workflow_epoch(self.workflow)
            ).dag.num_nodes
        except Exception:
            # A broken factory must fail inside the evaluated cell (with
            # attribution), never in the scheduler's dispatch ordering.
            nodes = 1
        factor = (
            _CLUSTER_COST_FACTOR
            if self.cluster is not None or _takes_cluster_config(self.executor)
            else 1.0
        )
        # Every fleet region generates and serves its own stream.
        regions = len(self.fleet.regions) if self.fleet is not None else 1
        return (
            float(self.n_requests)
            * self.tenants
            * nodes
            * len(self.policies)
            * factor
            * regions
        )

    @property
    def scenario_id(self) -> str:
        """Stable identifier for reports and skip notes.

        *Not* the seed-derivation label path: :meth:`ScenarioMatrix.expand`
        hashes the workload axes explicitly and deliberately excludes the
        executor, so cells differing only in backend replay the same
        request stream. The executor suffix appears only for explicitly
        named backends, keeping pre-existing auto-selected identifiers
        unchanged.
        """
        base = (
            f"{self.workflow}/{self.arrival.label}/"
            f"slo x{self.slo_scale:g}/tenants {self.tenants}"
        )
        if self.executor is not None:
            base += f"/exec {self.executor}"
        if self.streaming:
            base += "/streaming"
        if self.faults is not None:
            base += f"/faults {self.faults.label}"
        if self.fleet is not None:
            base += f"/fleet {self.fleet.label}"
        return base


@dataclass(frozen=True)
class ScenarioMatrix:
    """Cartesian product of scenario axes, expandable into seeded cells.

    Axes: ``workflows`` (names in the scenario workflow registry) x
    ``arrivals`` (:class:`ArrivalSpec` shapes) x ``slo_scales``
    (multipliers on each workflow's default SLO) x ``tenant_counts``
    (independent request streams merged by arrival time) x ``executors``
    (execution backends — ``None`` auto-selects the analytic backend for
    the topology, ``"cluster"`` serves on the DES platform). Every cell is
    served with every policy in ``policies`` on a common request stream.
    """

    workflows: tuple[str, ...] = ("IA", "VA")
    arrivals: tuple[ArrivalSpec, ...] = (ArrivalSpec(kind="constant"),)
    #: Trace-file paths appended to the arrivals axis as ``replay`` specs:
    #: each trace becomes one more arrival shape every workflow cell
    #: replays (its own sub-stream when the trace carries workflow
    #: attribution). The trace *content digest* is folded into the cell
    #: cache key, so editing a trace file cold-starts exactly the cells
    #: that replay it.
    traces: tuple[str, ...] = ()
    slo_scales: tuple[float, ...] = knob(POSITIVE, (1.0,), each=True)
    tenant_counts: tuple[int, ...] = knob(at_least(1), (1,), each=True)
    policies: tuple[str, ...] = DEFAULT_SWEEP_POLICIES
    n_requests: int = knob(at_least(1), 200)
    samples: int = knob(PROFILE_SAMPLES, 1000)
    seed: int = knob(INTEGER, 2025)
    baseline: str | None = field(default=None)
    #: Optional per-workflow pinned synthesis budgets
    #: ``{workflow: (tmin_ms, tmax_ms)}`` — workflows absent from the map
    #: derive their range from the profiles (Eq. 3).
    budgets: _t.Mapping[str, tuple[int, int]] | None = None
    #: Backend axis. Request-stream seeds are executor-independent, so the
    #: same workload replays on every backend of a cell family. Note that
    #: explicitly forcing a chain backend (``"analytic"``/``"batching"``)
    #: onto DAG workflows serves only the critical-path chain — the
    #: documented chain approximation, deliberate when requested by name;
    #: use ``None`` (auto) or ``"cluster"`` for full-DAG serving.
    executors: tuple[str | None, ...] = (None,)
    #: Cluster dimensions applied to the ``"cluster"`` cells of the
    #: ``executors`` axis (``None`` = the :class:`ClusterConfig` defaults).
    cluster: ClusterConfig | None = None
    #: Bounded-memory aggregation for every cell (see
    #: :attr:`Scenario.streaming`) — pair with a large ``n_requests``.
    streaming: bool = False
    #: Fault-injection axis (``(None,)`` = fault-free only). ``None``
    #: entries keep their cells' cache keys identical to a matrix without
    #: the axis; every :class:`~repro.cluster.faults.FaultSpec` entry adds
    #: a faulted sibling of every cell serving the *same* request stream.
    faults: tuple[FaultSpec | None, ...] = (None,)
    #: Multi-region fleet axis (``(None,)`` = single-region only). Like
    #: the faults axis, ``None`` entries keep their cells' cache keys and
    #: seeds identical to a matrix without the axis, and every
    #: :class:`~repro.fleet.topology.FleetConfig` entry adds a fleet
    #: sibling whose home region replays the same request stream.
    fleets: tuple[FleetConfig | None, ...] = (None,)

    def __post_init__(self) -> None:
        check(self, ExperimentError)
        for axis, values in (
            ("workflows", self.workflows),
            ("arrivals", self.effective_arrivals()),
            ("slo_scales", self.slo_scales),
            ("tenant_counts", self.tenant_counts),
            ("policies", self.policies),
            ("executors", self.executors),
            ("faults", self.faults),
            ("fleets", self.fleets),
        ):
            if not values:
                raise ExperimentError(f"matrix axis {axis!r} may not be empty")
        self._validate_traces()
        unknown = [w for w in self.workflows if w not in SCENARIO_WORKFLOWS]
        if unknown:
            raise ExperimentError(
                f"unknown workflows {unknown}; "
                f"known: {sorted(SCENARIO_WORKFLOWS)}"
            )
        # Config typos must fail at construction, not hours into a pooled
        # run.
        _validate_suite(self.policies, self.baseline)
        for name in self.executors:
            _validate_executor(name)
        if self.cluster is not None and not any(
            _takes_cluster_config(name) for name in self.executors
        ):
            raise ExperimentError(
                "a cluster config was given but no executor on the axis "
                f"{list(self.executors)} accepts one — the knobs would be "
                "silently ignored; add executors=(..., 'cluster')"
            )
        if self.cluster is not None:
            _check_vm_capacity(self.workflows, self.cluster)
        if self.streaming:
            bad = [e for e in self.executors if e not in _STREAMING_EXECUTORS]
            if bad:
                raise ExperimentError(
                    f"streaming matrices require an analytic backend "
                    f"(None, 'analytic' or 'dag') on every executor axis "
                    f"entry, got {bad}"
                )
            fleeted = [f.label for f in self.fleets if f is not None]
            if fleeted:
                raise ExperimentError(
                    f"streaming matrices cannot carry a fleets axis "
                    f"(got {fleeted}) — fleet cells retain per-region "
                    f"outcomes for the merge"
                )
        if self.budgets is not None:
            for wf, pair in self.budgets.items():
                tmin, tmax = pair
                if tmin < 0 or tmax < tmin:
                    raise ExperimentError(
                        f"invalid budget range {pair} for workflow {wf!r}"
                    )
        # Fault-axis combinations fail at construction, not from a pool
        # worker mid-sweep: every fault entry is applied to every cell, so
        # cluster-side kinds need every executor on the axis to accept
        # them, and storms need every arrival to carry a rate curve.
        for spec in self.faults:
            if spec is None:
                continue
            if spec.kind in CLUSTER_FAULT_KINDS:
                refusing = [
                    name for name in self.executors if not _takes_faults(name)
                ]
                if refusing:
                    raise ExperimentError(
                        f"fault {spec.label!r} needs a fault-injecting "
                        f"executor on every axis entry, but {refusing} "
                        f"accept no 'faults' option — split the matrix or "
                        f"use executors=('cluster',)"
                    )
                if (
                    spec.kind == "crash"
                    and self.cluster is not None
                    and self.cluster.n_vms < 2
                ):
                    raise ExperimentError(
                        f"crash fault needs n_vms >= 2, got "
                        f"n_vms={self.cluster.n_vms}"
                    )
            elif spec.kind == "region-failover":
                lacking = [
                    f.label if f is not None else None
                    for f in self.fleets
                    if f is None or len(f.regions) < 2
                ]
                if lacking:
                    raise ExperimentError(
                        f"fault {spec.label!r} needs a fleet with >= 2 "
                        f"regions on every fleets-axis entry, got {lacking} "
                        f"— add fleets=(FleetConfig(...),) or split the "
                        f"matrix"
                    )
            else:
                for arrival in self.effective_arrivals():
                    try:
                        storm_arrival(arrival, spec)
                    except (TraceError, ClusterError) as exc:
                        raise ExperimentError(f"faults axis: {exc}") from exc

    def effective_arrivals(self) -> tuple[ArrivalSpec, ...]:
        """The arrivals axis with each trace appended as a replay spec."""
        return self.arrivals + tuple(
            ArrivalSpec(kind="replay", trace=path) for path in self.traces
        )

    def _validate_traces(self) -> None:
        """Load every trace up front: a bad path or a trace that cannot
        serve a workflow on the axis must fail at construction, not from a
        pool worker mid-sweep."""
        from ..traces.trace_file import cached_trace

        replayed = [
            spec.trace for spec in self.effective_arrivals()
            if spec.kind == "replay" and spec.trace
        ]
        for path in replayed:
            try:
                trace = cached_trace(path)
            except TraceError as exc:
                raise ExperimentError(f"traces axis: {exc}") from exc
            if not trace.workflows:
                # Unattributed: every workflow replays the full stream.
                counts = {wf: trace.n_records for wf in self.workflows}
            else:
                counts = trace.counts_by_workflow()
            # A workflow listed in the catalog but with zero records is
            # just as unservable as one missing from it entirely.
            unserved = [
                wf for wf in self.workflows if not counts.get(wf)
            ]
            if unserved:
                raise ExperimentError(
                    f"trace {path!r} has no records for workflows "
                    f"{unserved} (catalog: {list(trace.workflows)}) — "
                    f"their replay cells could never be generated"
                )
            # Wrap-around replay needs a gap structure: a single-record
            # sub-stream cannot be extended to n_requests > 1 arrivals.
            too_thin = [
                wf for wf in self.workflows
                if counts[wf] == 1 and self.n_requests > 1
            ]
            if too_thin:
                raise ExperimentError(
                    f"trace {path!r} has a single record for workflows "
                    f"{too_thin}, which cannot be extended to "
                    f"n_requests={self.n_requests} replayed arrivals"
                )

    def __len__(self) -> int:
        return (
            len(self.workflows)
            * len(self.effective_arrivals())
            * len(self.slo_scales)
            * len(self.tenant_counts)
            * len(self.executors)
            * len(self.faults)
            * len(self.fleets)
        )

    def expand(self) -> list[Scenario]:
        """All cells in deterministic axis order, each with derived seeds.

        Seeds hash the cell's identifying labels, so adding or removing
        axis values never shifts the randomness of unrelated cells. The
        executor is deliberately absent from the seed labels: cells that
        differ only in backend serve the *same* request stream.
        """
        config_takers = {
            name for name in self.executors if _takes_cluster_config(name)
        }
        cells = []
        for (
            wf, arrival, scale, tenants, executor, faults, fleet,
        ) in itertools.product(
            self.workflows, self.effective_arrivals(), self.slo_scales,
            self.tenant_counts, self.executors, self.faults, self.fleets,
        ):
            cells.append(
                Scenario(
                    workflow=wf,
                    arrival=arrival,
                    slo_scale=float(scale),
                    # The schema admits integers only, so int() cannot
                    # truncate; it turns numpy integers into the plain
                    # ints the digest and report JSON serialise.
                    tenants=int(tenants),
                    policies=tuple(self.policies),
                    n_requests=int(self.n_requests),
                    samples=int(self.samples),
                    # The faults axis is deliberately absent from the seed
                    # labels (like the executor): a faulted cell draws the
                    # same request stream as its fault-free sibling, so
                    # fault impact is measured under common random numbers.
                    seed=child_seed(
                        self.seed, "scenario", wf, arrival.label,
                        f"{float(scale):g}", str(int(tenants)),
                    ),
                    profile_seed=child_seed(self.seed, "profiles", wf),
                    baseline=self.baseline,
                    budget_ms=(
                        tuple(self.budgets[wf])
                        if self.budgets is not None and wf in self.budgets
                        else None
                    ),
                    executor=executor,
                    cluster=self.cluster if executor in config_takers else None,
                    streaming=self.streaming,
                    faults=faults,
                    # Like the faults axis, fleets stay out of the seed
                    # labels: the home region of a fleet cell replays its
                    # single-region sibling's stream.
                    fleet=fleet,
                )
            )
        return cells

    def cost_estimate(self) -> float:
        """Total relative cost of the matrix (sum over expanded cells)."""
        return sum(cell.cost_estimate() for cell in self.expand())

    def with_scale(
        self, n_requests: int | None = None, samples: int | None = None
    ) -> "ScenarioMatrix":
        """Copy with a different evaluation scale (request/sample counts)."""
        changes: dict[str, _t.Any] = {}
        if n_requests is not None:
            changes["n_requests"] = int(n_requests)
        if samples is not None:
            changes["samples"] = int(samples)
        return replace(self, **changes) if changes else self


def parse_arrival(text: str) -> ArrivalSpec:
    """Parse a CLI arrival token into an :class:`ArrivalSpec`.

    Grammar: ``kind[@rate]`` — ``constant`` (back-to-back, or
    ``constant@interval_ms``), ``poisson@8``, ``burst@8`` (burst phase
    defaults to 10x the base rate at fraction 0.1), ``azure@8`` (heavy
    tail, default sigma), ``diurnal@8`` (sinusoidal NHPP, default
    amplitude/period) — plus ``replay@PATH``, whose operand is a trace
    file path, not a rate. Full control over burst/azure/diurnal shape
    parameters is available through :class:`ArrivalSpec` directly.
    """
    kind, _, rate = text.partition("@")
    kind = kind.strip().lower()
    if kind == "replay":
        # The operand is a path; empty means a malformed token.
        return ArrivalSpec(kind="replay", trace=rate.strip() or None)
    try:
        value = float(rate) if rate else None
    except ValueError:
        raise ExperimentError(f"invalid arrival rate in {text!r}")
    if kind == "constant":
        return ArrivalSpec(
            kind="constant", interval_ms=value if value is not None else 0.0
        )
    if kind in ("poisson", "burst", "azure", "diurnal"):
        # An explicit 0 rate passes through so the generators' own
        # validation rejects it — only an *absent* rate gets the default.
        return ArrivalSpec(
            kind=kind, rate_per_s=value if value is not None else 10.0
        )
    raise ExperimentError(
        f"unknown arrival kind {kind!r} in {text!r}; "
        "known: constant, poisson, burst, azure, diurnal, replay"
    )


def parse_cluster_config(text: str) -> ClusterConfig:
    """Parse CLI cluster knobs into a :class:`ClusterConfig`.

    Grammar: comma-separated ``field=value`` pairs over the config's
    fields, e.g. ``n_vms=2,warm_pool_size=4,autoscale=false,
    keepalive_ms=500``. Values parse as ``none``/booleans/ints/floats;
    unknown field names raise.
    """
    overrides: dict[str, _t.Any] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, raw = part.partition("=")
        key, raw = key.strip(), raw.strip().lower()
        if not sep or not key or not raw:
            raise ExperimentError(
                f"invalid cluster knob {part!r}; expected field=value"
            )
        value: _t.Any
        if raw in ("none", "null"):
            value = None
        elif raw in ("true", "yes", "on"):
            value = True
        elif raw in ("false", "no", "off"):
            value = False
        else:
            try:
                value = int(raw)
            except ValueError:
                try:
                    value = float(raw)
                except ValueError:
                    raise ExperimentError(
                        f"invalid value {raw!r} for cluster knob {key!r}"
                    )
        overrides[key] = value
    return ClusterConfig().with_overrides(**overrides)
