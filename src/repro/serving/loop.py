"""The asyncio serving loop: ingest, size, observe, adapt.

:class:`ServingLoop` is the live counterpart of :class:`~repro.runtime.
executor.AnalyticExecutor.run`: it consumes the executor's scalar sizing
walk one stage at a time, but over an *unbounded* arrival stream, with
bounded-memory metrics (:mod:`repro.metrics.streaming`) instead of
retained outcome lists, and with the paper's §III-D regeneration loop
running online — when the supervisor's sliding miss-rate window crosses
the threshold, the loop re-profiles from its recent latency window,
re-synthesizes hints (through the
:func:`~repro.synthesis.generator.synthesize_hints` disk memo) and
hot-swaps the adapter's tables. The adapter is stateless per request, so
in-flight requests finish against whichever tables their next stage
finds — none are dropped.

Scheduling is cooperative and deterministic: each request is an asyncio
task that yields between stages, so requests interleave like a real
service while a fixed seed and ``time_scale=0`` (no wall-clock pacing)
replay bit-identically. ``time_scale > 0`` paces arrivals and stage
executions against the wall clock (1.0 = real time, 60.0 = a minute of
trace per second).
"""

from __future__ import annotations

import asyncio
import itertools
import math
import time
import typing as _t
from collections import deque
from dataclasses import dataclass, field

from ..cluster.faults import FaultSpec, compile_region_failover
from ..errors import ExperimentError
from ..fleet.routing import StreamRouter
from ..fleet.runner import fleet_arrival_source, region_arrival
from ..fleet.topology import FleetConfig
from ..knobs import (
    INTEGER, NON_NEGATIVE, POSITIVE, Domain, at_least, check, knob, require,
)
from ..metrics.streaming import StreamingMoments, StreamingSummary, WindowedRate
from ..adapter.supervisor import HitMissSupervisor
from ..policies.registry import JANUS_EXPLORATIONS, POLICIES
from ..profiling.profiles import LatencyProfile, ProfileSet
from ..profiling.profiler import PROFILE_SAMPLES, profile_workflow
from ..rng import RngFactory, child_seed
from ..runtime.executor import AnalyticExecutor
from ..scenarios.registry import scenario_workflow
from ..synthesis.generator import HeadExploration, synthesize_hints
from ..traces.workload import (
    ArrivalSpec,
    ScaleKnob,
    check_workset_scale,
    draw_dynamics,
    dynamics_streams,
)
from ..workflow.catalog import Workflow
from ..workflow.request import (
    DEFAULT_STREAM_CHUNK,
    RequestOutcome,
    StageRecord,
    WorkflowRequest,
    dynamics_rows,
)
from .events import EventLog

__all__ = ["ServingConfig", "ServingLoop", "ServingReport", "run_service"]


@dataclass(frozen=True)
class ServingConfig:
    """Knobs of one serving run.

    ``source`` is an :class:`ArrivalSpec` (build one with
    :func:`repro.scenarios.matrix.parse_arrival` from tokens like
    ``diurnal@8`` or ``replay@trace.jsonl``). ``time_scale=0`` disables
    wall-clock pacing — the stream is served as fast as the machine
    allows, which is what bounded CI runs want. ``workset_schedule``
    deterministically drifts the workload mid-run: ``((after_n, scale),
    ...)`` multiplies drawn working sets by ``scale`` from request index
    ``after_n`` on — the forcing function for adaptation tests.
    """

    workflow: str = "IA"
    policy: str = "Janus"
    source: ArrivalSpec = field(
        default_factory=lambda: ArrivalSpec(kind="poisson", rate_per_s=50.0)
    )
    seed: int = knob(INTEGER, 0)
    samples: int = knob(PROFILE_SAMPLES, 2000)
    slo_scale: float = knob(POSITIVE, 1.0)
    max_requests: int | None = knob(at_least(1).or_none, None)
    #: ``inf`` (with no ``max_requests``) serves forever.
    max_seconds: float | None = knob(Domain(lo=0.0, hi_open=False).or_none, None)
    time_scale: float = knob(NON_NEGATIVE, 0.0)
    metrics_every: int = knob(at_least(1), 500)
    percentiles: tuple[float, ...] = knob(
        Domain(0.0, 100.0), (50.0, 95.0, 99.0), each=True
    )
    slo_window: int = knob(at_least(1), 1000)
    miss_threshold: float = knob(HitMissSupervisor.KNOBS["miss_threshold"], 0.01)
    miss_window: int = knob(at_least(1), 200)
    min_samples: int = knob(HitMissSupervisor.KNOBS["min_samples"], 50)
    adapt: bool = True
    latency_window: int = knob(at_least(1), 512)
    workset_schedule: tuple[tuple[int, float], ...] = ()
    event_log: str | None = None
    #: Arrival-side fault injection: a ``storm`` :class:`FaultSpec`
    #: superimposes a flash crowd on the declared ``source`` (multiplied
    #: rate inside a window around the diurnal peak), and a
    #: ``region-failover`` spec darkens one fleet region for a window of
    #: the first source period (fleet runs only). Cluster-side kinds
    #: (preempt/crash/straggler/contention) need the DES platform — run
    #: them through a sweep with ``--executor cluster`` instead.
    faults: FaultSpec | None = None
    #: Serve a multi-region fleet instead of one stream: per-region
    #: phase-offset sources heap-merge into one arrival stream, each
    #: arrival is routed by the fleet's :class:`~repro.fleet.routing
    #: .RoutingPolicy` under the live occupancy proxy, and remote-served
    #: requests pay the topology RTT on their latency. Fleet counters
    #: (spillovers/failovers/shares) join every metrics snapshot.
    fleet: FleetConfig | None = None

    def __post_init__(self) -> None:
        check(self, ExperimentError)
        if self.max_requests is None and self.max_seconds is None:
            raise ExperimentError(
                "an unbounded run needs an explicit opt-in: set "
                "max_requests and/or max_seconds (use max_seconds=inf "
                "for a true always-on service)"
            )
        last = -1
        for i, (after_n, scale) in enumerate(self.workset_schedule):
            require(
                ExperimentError,
                f"ServingConfig.workset_schedule[{i}] index (indices ascend)",
                after_n, at_least(last + 1),
            )
            require(ExperimentError, _drift_knob(i)[0], scale, POSITIVE)
            last = after_n
        if self.faults is not None and self.faults.kind == "region-failover":
            if self.fleet is None or len(self.fleet.regions) < 2:
                raise ExperimentError(
                    f"fault {self.faults.label!r} needs a fleet with >= 2 "
                    f"regions to drain to — pass fleet=FleetConfig(...) "
                    f"(CLI: --fleet regions=3,...)"
                )
        elif self.faults is not None and self.faults.kind != "storm":
            raise ExperimentError(
                f"serving injects arrival-side faults only (storm, plus "
                f"region-failover on a fleet); fault kind "
                f"{self.faults.kind!r} needs the DES cluster platform — "
                f"run it through a sweep with --executor cluster"
            )


def _drift_knob(i: int) -> ScaleKnob:
    return f"ServingConfig.workset_schedule[{i}] scale (--drift)", ExperimentError


@dataclass(frozen=True)
class ServingReport:
    """What a bounded serving run amounted to."""

    workflow: str
    policy: str
    source: str
    arrivals: int
    completed: int
    dropped: int
    swaps: int
    snapshot: dict[str, float]
    wall_seconds: float


class ServingLoop:
    """Always-on request sizing over an unbounded arrival stream."""

    def __init__(
        self,
        config: ServingConfig,
        workflow: Workflow | None = None,
        profiles: ProfileSet | None = None,
    ) -> None:
        self.config = config
        self.workflow = workflow or scenario_workflow(config.workflow)
        if self.workflow.topology != "chain":
            raise ExperimentError(
                f"serving supports chain workflows, got topology "
                f"{self.workflow.topology!r} ({self.workflow.name})"
            )
        # Checked or built before profiling, so an overflowing drift scale
        # or a window below min_samples fails fast.
        for i, (_, scale) in enumerate(config.workset_schedule):
            check_workset_scale(self.workflow, scale, _drift_knob(i))
        supervisor = HitMissSupervisor(
            miss_threshold=config.miss_threshold,
            min_samples=config.min_samples,
            window=config.miss_window,
        )
        self.slo_ms = float(self.workflow.slo_ms) * config.slo_scale
        self.profiles = profiles or profile_workflow(
            self.workflow, seed=config.seed, samples=config.samples
        )
        self.policy = POLICIES.build(
            config.policy,
            self.workflow,
            self.profiles,
            slo_ms=self.slo_ms,
        )
        self.policy.bind(self.workflow)
        self.executor = AnalyticExecutor(self.workflow)

        # Wire drift detection into the policy's adapter when it has one
        # (the Janus family); other policies serve without adaptation.
        self.adapter = getattr(self.policy, "adapter", None)
        self._drift_flagged = False
        if self.adapter is not None:
            supervisor.on_regenerate(self._flag_drift)
            self.adapter.supervisor = supervisor

        # A storm fault reshapes the declared source into its flash-crowd
        # counterpart; everything downstream (labels in the start event,
        # the report) keeps the declared source so runs stay comparable.
        self.effective_source = config.source
        if config.faults is not None and config.faults.kind == "storm":
            from ..scenarios.matrix import storm_arrival

            self.effective_source = storm_arrival(
                config.source, config.faults
            )
        factory = RngFactory(config.seed).fork("serving", self.workflow.name)
        self.fleet = config.fleet
        # ``self._arrivals`` yields ``(arrival_ms, home_region)``: one
        # phase-offset stream per region, merged. Region 0 (the only one
        # without a fleet) draws the fleet-free stream byte for byte
        # (common random numbers: turning on a fleet replays the
        # single-region run's arrivals at home); the rest fork fresh
        # per-region streams.
        regions = self.fleet.regions if self.fleet is not None else ("",)
        self._arrivals = fleet_arrival_source(
            [
                region_arrival(self.effective_source, r, len(regions))
                for r in range(len(regions))
            ],
            [factory.stream("arrivals")]
            + [factory.stream("region", name, "arrivals") for name in regions[1:]],
            workflow=self.workflow.name,
        )
        self.router: StreamRouter | None = None
        if self.fleet is not None:
            outage = None
            if (
                config.faults is not None
                and config.faults.kind == "region-failover"
            ):
                # The dark window lands inside the first source period —
                # the serving analogue of the sweep's traffic-span
                # horizon, well-defined even for an unbounded run.
                outage = compile_region_failover(
                    config.faults,
                    child_seed(
                        config.seed, "faults", config.faults.label
                    ),
                    len(regions),
                    self.effective_source.period_s * 1000.0,
                )
            self.router = StreamRouter(
                self.fleet, hold_ms=self.slo_ms, outage=outage
            )
        self._dynamics = self._draw_dynamics(factory)

        # Streaming state — all O(1) or bounded-window memory.
        self.latency = StreamingSummary(config.percentiles)
        self.slo = WindowedRate(window=config.slo_window)
        self.cost = StreamingMoments()
        self.slack = StreamingMoments()
        self._lat_windows: dict[str, deque[tuple[float, int]]] = {
            name: deque(maxlen=config.latency_window)
            for name in self.workflow.chain
        }
        self.events = EventLog(config.event_log)
        self.arrivals = 0
        self.completed = 0
        self.swaps = 0
        self._in_flight: set[asyncio.Task[None]] = set()

    # -- request construction ----------------------------------------------
    def _flag_drift(self, _supervisor: HitMissSupervisor) -> None:
        self._drift_flagged = True

    def _draw_dynamics(
        self, factory: RngFactory
    ) -> _t.Iterator[tuple[float, dict[str, _t.Any]]]:
        # ``(workset_scale, stage dynamics)`` per request: the draw of
        # :func:`repro.traces.workload.iter_requests` on the loop's own
        # streams, DEFAULT_STREAM_CHUNK requests at a time within each
        # drift step (no value depends on the chunking); each row is built
        # (and checks itself) when read. The stream is identical however
        # the loop is paced or adapted.
        stages = dynamics_streams(self.workflow, factory)
        # Step -1 is the unscaled start, whose knob is never checked.
        steps = [(0, 1.0), *self.config.workset_schedule, (math.inf, 1.0)]
        for i, ((lo, scale), (hi, _)) in enumerate(itertools.pairwise(steps), -1):
            while lo < hi:
                m = int(min(DEFAULT_STREAM_CHUNK, hi - lo))
                columns = draw_dynamics(stages, m, scale, scale_knob=_drift_knob(i))
                yield from zip(itertools.repeat(scale), dynamics_rows(columns))
                lo += m

    # -- serving ------------------------------------------------------------
    async def _serve(
        self, request: WorkflowRequest, rtt_ms: float = 0.0
    ) -> None:
        # A remote-routed request pays the cross-region hop as a timeline
        # shift (same law as the batch fleet evaluator): e2e latency grows
        # by exactly the RTT while the sizing walk — like the executors in
        # a sweep cell — never sees it.
        stages: list[StageRecord] = []
        for record, exec_ms in self.executor.walk(
            self.policy, request, request.arrival_ms + rtt_ms
        ):
            stages.append(record)
            self._lat_windows[record.function].append((exec_ms, record.size))
            if self.config.time_scale > 0:
                await asyncio.sleep(
                    exec_ms / 1000.0 / self.config.time_scale
                )
            else:
                # Cooperative yield: other requests advance one stage per
                # scheduler round, so the service genuinely interleaves.
                await asyncio.sleep(0)
        outcome = RequestOutcome(
            request_id=request.request_id,
            arrival_ms=request.arrival_ms,
            slo_ms=request.slo_ms,
            stages=stages,
        )
        self._on_complete(outcome)

    def _on_complete(self, outcome: RequestOutcome) -> None:
        self.completed += 1
        self.latency.add(outcome.e2e_ms)
        self.slo.add(outcome.slo_met)
        self.cost.add(outcome.allocated_millicores)
        self.slack.add(outcome.slack)
        self.events.emit(
            "decision",
            request_id=outcome.request_id,
            e2e_ms=round(outcome.e2e_ms, 3),
            slo_met=outcome.slo_met,
            allocated_millicores=outcome.allocated_millicores,
            sizes=outcome.sizes(),
        )
        if self._drift_flagged and self.config.adapt:
            self._resynthesize()
        if self.completed % self.config.metrics_every == 0:
            self.events.emit("snapshot", **self.snapshot())

    # -- adaptation ----------------------------------------------------------
    def _drift_ratios(self) -> dict[str, float]:
        """Per-function latency multiplier vs the deployed profiles.

        Estimated from the recent (exec_ms, size) window as the mean
        ratio against the profile's median latency at the same size — a
        stand-in for the developer re-profiling on representative drifted
        inputs (paper §III-D).
        """
        ratios = {}
        for fname in self.workflow.chain:
            window = self._lat_windows[fname]
            prof = self.profiles[fname]
            samples = []
            for exec_ms, size in window:
                expected = prof.latency(50.0, size)
                if expected > 0:
                    samples.append(exec_ms / expected)
            ratios[fname] = (
                sum(samples) / len(samples) if samples else 1.0
            )
        return ratios

    def _resynthesize(self) -> None:
        self._drift_flagged = False
        if self.adapter is None:
            return
        ratios = self._drift_ratios()
        scaled = {}
        for fname in self.workflow.chain:
            prof = self.profiles[fname]
            scaled[fname] = LatencyProfile(
                function=prof.function,
                percentiles=prof.percentiles,
                limits=prof.limits,
                concurrencies=prof.concurrencies,
                table=prof.table * ratios[fname],
            )
        exploration = JANUS_EXPLORATIONS.get(
            self.config.policy, HeadExploration.HEAD_ONLY
        )
        # budget=None: the Eq. 3 feasible range is recomputed from the
        # drifted tables, which is what moves the covered budgets back
        # over the traffic (the disk memo absorbs repeat synthesis).
        new_hints = synthesize_hints(
            ProfileSet(scaled),
            self.workflow.chain,
            budget=None,
            exploration=exploration,
            workflow_name=self.workflow.name,
        )
        in_flight = max(0, len(self._in_flight) - 1)  # minus the completer
        self.adapter.replace_hints(new_hints)  # resets the supervisor
        self.profiles = ProfileSet(
            {**{f: self.profiles[f] for f in self.profiles.functions()},
             **scaled}
        )
        # Fresh windows: the next estimate (if drift persists) should be
        # measured against the tables just deployed, not diluted by
        # samples that predate the swap.
        for window in self._lat_windows.values():
            window.clear()
        self.swaps += 1
        self.events.emit(
            "swap",
            swap=self.swaps,
            completed=self.completed,
            in_flight=in_flight,
            ratios={f: round(r, 4) for f, r in ratios.items()},
        )

    # -- metrics -------------------------------------------------------------
    def snapshot(self) -> dict[str, float]:
        """Live metrics as a plain dict (percentile_summary-compatible
        latency keys plus SLO attainment, cost and miss-rate counters)."""
        if self.completed == 0:
            raise ExperimentError("no completed requests to snapshot yet")
        out = self.latency.snapshot()
        out["arrivals"] = float(self.arrivals)
        out["completed"] = float(self.completed)
        out["in_flight"] = float(len(self._in_flight))
        out["slo_attainment"] = self.slo.rate
        out["slo_attainment_windowed"] = self.slo.windowed_rate
        out["violation_rate"] = 1.0 - self.slo.rate
        out["mean_allocated_millicores"] = self.cost.mean
        out["total_millicore_cost"] = self.cost.total
        out["mean_slack"] = self.slack.mean
        out["swaps"] = float(self.swaps)
        if self.adapter is not None:
            sup = self.adapter.supervisor
            out["miss_rate"] = sup.miss_rate
            out["cumulative_miss_rate"] = sup.cumulative_miss_rate
        else:
            out["miss_rate"] = 0.0
        if self.router is not None and self.router.routed:
            # Fleet accounting, mirroring the sweep extras' fixed keys.
            router = self.router
            out["fleet_spillovers"] = float(router.spillovers)
            out["fleet_failovers"] = float(router.failovers)
            out["fleet_remote_fraction"] = (
                (router.spillovers + router.failovers) / router.routed
            )
            out["fleet_rtt_penalty_ms"] = (
                router.rtt_total_ms / router.routed
            )
            for region, name in enumerate(self.fleet.regions):
                out[f"fleet_share_{name}"] = (
                    router.region_counts[region] / router.routed
                )
        return out

    # -- main loop -----------------------------------------------------------
    async def run(self) -> ServingReport:
        """Serve until a bound trips; returns the final report."""
        cfg = self.config
        t0 = time.perf_counter()
        start_fields: dict[str, _t.Any] = dict(
            workflow=self.workflow.name,
            policy=self.policy.name,
            source=cfg.source.label,
            slo_ms=self.slo_ms,
            seed=cfg.seed,
            time_scale=cfg.time_scale,
        )
        if self.fleet is not None:
            start_fields["fleet"] = self.fleet.label
            start_fields["routing"] = self.fleet.routing
        self.events.emit("start", **start_fields)
        if cfg.faults is not None:
            self.events.emit(
                "fault",
                fault=cfg.faults.label,
                fault_kind=cfg.faults.kind,
                effective_source=self.effective_source.label,
            )
        try:
            for arrival_ms, home in self._arrivals:
                if (
                    cfg.max_requests is not None
                    and self.arrivals >= cfg.max_requests
                ):
                    break
                if (
                    cfg.max_seconds is not None
                    and time.perf_counter() - t0 >= cfg.max_seconds
                ):
                    break
                if cfg.time_scale > 0:
                    target = t0 + arrival_ms / 1000.0 / cfg.time_scale
                    delay = target - time.perf_counter()
                    if delay > 0:
                        await asyncio.sleep(delay)
                rtt_ms = 0.0
                served = home
                if self.router is not None:
                    served, rtt_ms = self.router.route(home, arrival_ms)
                workset_scale, dynamics = next(self._dynamics)
                request = WorkflowRequest(
                    request_id=self.arrivals,
                    arrival_ms=arrival_ms,
                    slo_ms=self.slo_ms,
                    stage_dynamics=dynamics,
                    concurrency=1,
                    workflow=self.workflow.name,
                )
                self.arrivals += 1
                arrival = dict(
                    request_id=request.request_id,
                    arrival_ms=round(arrival_ms, 3),
                    workset_scale=workset_scale,
                )
                if self.fleet is not None:
                    arrival.update(
                        home=self.fleet.regions[home],
                        served=self.fleet.regions[served],
                        rtt_ms=rtt_ms,
                    )
                self.events.emit("arrival", **arrival)
                task = asyncio.ensure_future(self._serve(request, rtt_ms))
                self._in_flight.add(task)
                task.add_done_callback(self._in_flight.discard)
                await asyncio.sleep(0)
            # Drain: no request is dropped — every ingested arrival
            # completes, including those mid-flight during a hot swap.
            while self._in_flight:
                await asyncio.gather(*list(self._in_flight))
            snapshot = self.snapshot()
            self.events.emit("snapshot", **snapshot)
            wall = time.perf_counter() - t0
            self.events.emit(
                "stop",
                arrivals=self.arrivals,
                completed=self.completed,
                swaps=self.swaps,
                wall_seconds=round(wall, 3),
            )
            return ServingReport(
                workflow=self.workflow.name,
                policy=self.policy.name,
                source=cfg.source.label,
                arrivals=self.arrivals,
                completed=self.completed,
                dropped=self.arrivals - self.completed,
                swaps=self.swaps,
                snapshot=snapshot,
                wall_seconds=wall,
            )
        finally:
            self.events.close()


def run_service(
    config: ServingConfig,
    workflow: Workflow | None = None,
    profiles: ProfileSet | None = None,
) -> ServingReport:
    """Build a :class:`ServingLoop` and run it to completion."""
    loop = ServingLoop(config, workflow=workflow, profiles=profiles)
    return asyncio.run(loop.run())
