"""Scenario execution: one cell through the Session pipeline, or a whole
matrix on a pluggable execution backend.

Determinism contract: every random stream a scenario consumes derives from
labels hashed off the matrix seed (:func:`repro.rng.child_seed`), and
per-process caches (profiles, DP tables, hints) only memoise pure
functions of those seeds. Every backend (serial, process pool,
distributed) therefore produces bit-identical results — the property
``tests/test_scenarios.py`` pins across actual process boundaries — and a
:class:`~repro.scenarios.cache.CellCache` replay is byte-identical to a
cold run.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import os
import time
import typing as _t
from dataclasses import dataclass, replace

import numpy as np

from ..api.session import Session
from ..errors import ExperimentError
from ..profiling.profiler import profile_workflow
from ..profiling.profiles import ProfileSet
from ..rng import child_seed
from ..runtime.driver import compare, run_policies
from ..synthesis.budget import BudgetRange
from ..traces.workload import (
    ArrivalSpec,
    WorkloadConfig,
    generate_requests,
    iter_requests,
)
from ..workflow.catalog import Workflow
from ..workflow.request import RequestBlock, WorkflowRequest
from .backends import ExecutionBackend, resolve_backend
from .cache import (
    CellCache,
    add_stats,
    configure_persistent_caches,
    restore_persistent_caches,
    snapshot_persistent_caches,
    synthesis_cache_stats,
)
from ..cluster.faults import CLUSTER_FAULT_KINDS
from .matrix import Scenario, ScenarioMatrix
from .registry import scenario_workflow, workflow_epoch
from .report import CARRIED_EXTRAS, ScenarioResult, SweepReport

__all__ = [
    "SweepRunner",
    "CellOutcome",
    "cell_result",
    "evaluate_cell",
    "run_scenario",
    "scenario_requests",
    "iter_scenario_requests",
    "merge_tenant_streams",
]

#: Per-cell progress sink: called with one human-readable line as each
#: cell resolves (cache hit or completed evaluation).
ProgressCallback = _t.Callable[[str], None]


@functools.lru_cache(maxsize=16)
def _profiles_for(
    workflow: str, samples: int, profile_seed: int, epoch: int = 0
) -> ProfileSet:
    """One profiling campaign per (workflow, samples, seed), per process.

    ``epoch`` is the registry's re-registration counter for the name, so a
    swapped factory gets a fresh campaign without evicting other entries.
    """
    return profile_workflow(
        scenario_workflow(workflow), seed=profile_seed, samples=samples
    )


def merge_tenant_streams(
    streams: _t.Sequence[_t.Sequence[WorkflowRequest]],
) -> RequestBlock:
    """Interleave per-tenant request streams into one arrival-ordered stream.

    The sort key is ``(arrival_ms, tenant index, request id)`` — total and
    deterministic even when streams share timestamps (constant arrivals).
    Requests are re-numbered in merged order.
    """
    return _arrival_merge(streams)[0]


def _arrival_merge(
    streams: _t.Sequence[_t.Sequence[WorkflowRequest]],
) -> tuple[RequestBlock, list[int]]:
    """:func:`merge_tenant_streams`, plus each request's stream index:
    one stable ``lexsort`` over the streams' columns."""
    blocks = [RequestBlock.of(stream) for stream in streams]
    source = np.repeat(np.arange(len(blocks)), [len(b) for b in blocks])
    order = np.lexsort((
        np.concatenate([b.request_ids for b in blocks]),
        source,
        np.concatenate([b.arrivals for b in blocks]),
    ))
    return RequestBlock.merged(blocks, order), source[order].tolist()


def _tenant_plan(
    scenario: Scenario,
    slo_ms: float,
    arrival: ArrivalSpec | None = None,
    seed_labels: tuple[str, ...] = (),
) -> tuple[WorkloadConfig, list[int]]:
    """The stream config a cell's tenants share, and each tenant's seed.

    Tenant ``t`` draws from ``child_seed(scenario.seed, *seed_labels,
    "tenant", t)``, so tenant counts change the mix without perturbing
    other cells. A storm fault rewrites the arrival process; every other
    fault (and None) serves the declared arrival verbatim.
    """
    config = WorkloadConfig(
        n_requests=scenario.n_requests,
        arrival=scenario.effective_arrival() if arrival is None else arrival,
        slo_ms=slo_ms,
    )
    seeds = [
        child_seed(scenario.seed, *seed_labels, "tenant", str(tenant))
        for tenant in range(scenario.tenants)
    ]
    return config, seeds


def scenario_requests(
    workflow: Workflow, scenario: Scenario, slo_ms: float
) -> RequestBlock:
    """The scenario's request stream: per-tenant streams, arrival-merged."""
    config, seeds = _tenant_plan(scenario, slo_ms)
    streams = [generate_requests(workflow, config, seed=s) for s in seeds]
    return streams[0] if scenario.tenants == 1 else merge_tenant_streams(streams)


def iter_scenario_requests(
    workflow: Workflow, scenario: Scenario, slo_ms: float
) -> _t.Iterator[WorkflowRequest]:
    """Lazy variant of :func:`scenario_requests` for streaming cells.

    Yields the identical arrival-merged stream (same seeds, same merge
    order) without materialising it: per-tenant generators are heap-merged
    on the same ``(arrival_ms, tenant, request_id)`` key
    :func:`merge_tenant_streams` sorts by, which coincides with a stable
    merge because each tenant stream is already arrival-ordered.
    """
    config, seeds = _tenant_plan(scenario, slo_ms)
    streams = [iter_requests(workflow, config, seed=s) for s in seeds]
    if scenario.tenants == 1:
        yield from streams[0]
        return
    tagged = heapq.merge(
        *(zip(itertools.repeat(t), stream) for t, stream in enumerate(streams)),
        key=lambda item: (item[1].arrival_ms, item[0], item[1].request_id),
    )
    for i, (_, req) in enumerate(tagged):
        yield replace(req, request_id=i)


def cell_result(
    scenario: Scenario,
    slo_ms: float,
    results: _t.Mapping[str, _t.Any],
    executor: str,
    added_extras: _t.Mapping[str, _t.Mapping[str, float]] | None = None,
) -> ScenarioResult:
    """Assemble one cell's :class:`ScenarioResult` from its per-policy
    results — the regular, streaming and fleet cells all end here.

    The baseline defaults to Optimal when served, else the first policy.
    Per-policy extras keep only the deterministic :data:`CARRIED_EXTRAS`
    keys, so the serial-vs-pool bit-identity of the JSON payload survives
    (timing diagnostics like ``synthesis_seconds`` stay out);
    ``added_extras`` (a fleet cell's accounting) joins them per policy.
    """
    baseline = scenario.baseline
    if baseline is None:
        baseline = "Optimal" if "Optimal" in results else next(iter(results))
    extras: dict[str, dict[str, float]] = {}
    for name, res in results.items():
        vals = {
            key: float(res.extras[key])
            for key in CARRIED_EXTRAS
            if key in res.extras
        }
        vals.update((added_extras or {}).get(name, {}))
        if vals:
            extras[name] = vals
    return ScenarioResult(
        scenario_id=scenario.scenario_id,
        workflow=scenario.workflow,
        arrival=scenario.arrival.label,
        slo_scale=scenario.slo_scale,
        tenants=scenario.tenants,
        slo_ms=slo_ms,
        seed=scenario.seed,
        baseline=baseline,
        executor=executor,
        table=compare(results, baseline=baseline),
        extras=extras,
    )


def run_scenario(scenario: Scenario) -> ScenarioResult | None:
    """Evaluate one scenario cell end to end through a :class:`Session`.

    Returns ``None`` when no requested policy can be built for this cell
    (the sweep runner then reports the whole cell as skipped).
    """
    workflow = scenario_workflow(scenario.workflow)
    # Microsecond rounding so scale factors derived from absolute SLOs
    # round-trip exactly (3000 * (3130/3000) = 3129.9999999999995 would
    # otherwise shift the SLO by an epsilon and truncate the budget tmax
    # by a whole millisecond).
    slo_ms = round(float(workflow.slo_ms) * scenario.slo_scale, 6)
    budget = None
    if scenario.budget_ms is not None:
        tmin, tmax = scenario.budget_ms
        # Pinned (paper) range; a looser SLO extends tmax so the DP can
        # explore up to the deadline — ia_setup/va_setup semantics.
        budget = BudgetRange(int(tmin), max(int(tmax), int(slo_ms)))
    executor_kwargs: dict[str, _t.Any] = {}
    if scenario.cluster is not None:
        executor_kwargs["config"] = scenario.cluster
    if (
        scenario.faults is not None
        and scenario.faults.kind in CLUSTER_FAULT_KINDS
    ):
        # Cluster-side faults ship to the executor factory with their own
        # derived seed; the request-stream seed stays fault-independent so
        # the faulted cell replays its fault-free sibling's workload.
        executor_kwargs["faults"] = scenario.faults
        executor_kwargs["fault_seed"] = child_seed(
            scenario.seed, "faults", scenario.faults.label
        )
    session = Session(
        workflow,
        slo_ms=slo_ms,
        budget=budget,
        samples=scenario.samples,
        seed=scenario.profile_seed,
        profiles=_profiles_for(
            scenario.workflow, scenario.samples, scenario.profile_seed,
            workflow_epoch(scenario.workflow),
        ),
        executor=scenario.executor,
        executor_kwargs=executor_kwargs,
    )
    # Dead-cell detection is scoped to suite assembly only: a cell dies
    # when no requested policy is buildable here (chain-only suite on a
    # DAG topology) or the pinned baseline is infeasible. Everything else
    # — serving, report construction — propagates, so genuine errors are
    # never misreported as "skipped". Scenario.__post_init__ already
    # rejected unknown policy/baseline names, so a dead cell is never a
    # typo.
    try:
        suite = session.suite(list(scenario.policies))
    except ExperimentError:
        return None
    if scenario.baseline is not None and scenario.baseline not in suite:
        return None
    if scenario.fleet is not None:
        # Fleet cells route per-region streams through the fleet runner
        # (lazy import: repro.fleet is imported by matrix construction,
        # but the runner half pulls scenario modules back in).
        from ..fleet.runner import run_fleet_scenario

        return run_fleet_scenario(session, scenario, slo_ms, suite)
    backend = session.executor(scenario.executor)
    if scenario.streaming:
        # Bounded memory: aggregates only, no retained outcomes. Each
        # policy re-generates the identical request stream from the cell
        # seed (common random numbers without a shared materialised list).
        results = {
            name: backend.run_streaming(
                policy,
                iter_scenario_requests(session.workflow, scenario, slo_ms),
            )
            for name, policy in suite.items()
        }
        return cell_result(
            scenario, slo_ms, results, f"{type(backend).__name__}[streaming]"
        )
    requests = scenario_requests(session.workflow, scenario, slo_ms)
    results = run_policies(session.workflow, suite, requests, executor=backend)
    return cell_result(scenario, slo_ms, results, type(backend).__name__)


@dataclass(frozen=True)
class CellOutcome:
    """What one evaluated cell ships back across the process boundary.

    ``result`` is the deterministic payload; everything else is
    diagnostics (wall time, per-cell deltas of the synthesis memo
    counters) that stays out of the byte-stable report JSON.
    """

    result: ScenarioResult | None
    wall_seconds: float
    cache_stats: dict[str, dict[str, int]]


def evaluate_cell(scenario: Scenario) -> CellOutcome:
    """Run one cell with error attribution and cache accounting.

    Backends dispatch this (it is top-level, hence picklable). Any
    exception escaping :func:`run_scenario` is re-raised as an
    :class:`ExperimentError` naming the cell — a pooled sweep otherwise
    reports a bare worker traceback with no hint of *which* of hundreds
    of cells died. The original error type and message are embedded
    because exception chains do not survive the process boundary intact.
    """
    before = synthesis_cache_stats()
    start = time.perf_counter()
    try:
        result = run_scenario(scenario)
    except Exception as exc:
        raise ExperimentError(
            f"scenario {scenario.scenario_id} failed "
            f"({type(exc).__name__}: {exc})"
        ) from exc
    wall = time.perf_counter() - start
    after = synthesis_cache_stats()
    delta = {
        section: {
            name: after[section][name] - counters[name]
            for name in counters
        }
        for section, counters in before.items()
    }
    return CellOutcome(result=result, wall_seconds=wall, cache_stats=delta)


class SweepRunner:
    """Executes a :class:`ScenarioMatrix` on a pluggable execution backend.

    ``backend`` names the scheduling strategy (``"serial"``, ``"pool"``,
    ``"distributed"``, or any :func:`~repro.scenarios.backends.
    register_backend` registration — an :class:`ExecutionBackend` instance
    also works). ``None`` keeps the historical rule: serial when
    ``max_workers`` <= 1, the process pool otherwise. Results are
    bit-identical across backends and worker counts — only wall time
    changes.

    ``cache_dir`` enables content-addressed persistence: per-cell results
    (skipping already-computed cells on re-runs and overlapping sweeps)
    plus disk layers behind the DP/hints memos shared by every worker.
    The runner is the cell cache's only reader and writer, whatever the
    backend. ``progress`` receives one line per resolved cell.

    ``backend_options`` are extra constructor options for a string-named
    backend (e.g. ``{"hosts": "local:2,big:8"}`` for ``distributed``);
    they pass through
    :func:`~repro.scenarios.backends.resolve_backend`'s signature
    filtering, so options a backend doesn't declare are ignored.
    """

    def __init__(
        self,
        max_workers: int | None = None,
        mp_context: _t.Any = None,
        backend: "str | ExecutionBackend | None" = None,
        cache_dir: str | os.PathLike[str] | None = None,
        progress: ProgressCallback | None = None,
        backend_options: _t.Mapping[str, _t.Any] | None = None,
    ) -> None:
        if max_workers is None:
            max_workers = os.cpu_count() or 1
        self.max_workers = max(1, int(max_workers))
        self.mp_context = mp_context
        self.backend = backend
        self.cache_dir = None if cache_dir is None else os.fspath(cache_dir)
        self.progress = progress
        self.backend_options = dict(backend_options or {})

    def _emit(
        self,
        scenario: Scenario,
        index: int,
        total: int,
        wall: float,
        cache_hit: bool,
    ) -> None:
        if self.progress is None:
            return
        source = "cache hit" if cache_hit else f"{wall:.2f} s"
        self.progress(
            f"[{index + 1}/{total}] {scenario.scenario_id}: {source}"
        )

    def run(self, matrix: ScenarioMatrix) -> SweepReport:
        """Evaluate every cell and aggregate one :class:`SweepReport`.

        Cell order (and thus the report) is the matrix expansion order
        regardless of which worker finishes first. Cached cells are
        resolved in the parent before anything is dispatched, so a fully
        warm sweep performs zero evaluations.
        """
        scenarios = matrix.expand()
        total = len(scenarios)
        start = time.perf_counter()
        cache = CellCache(self.cache_dir) if self.cache_dir else None

        raw: list[ScenarioResult | None] = [None] * total
        pending: list[tuple[int, Scenario]] = []
        resolved = 0
        if cache is not None:
            for i, scenario in enumerate(scenarios):
                hit = cache.lookup(scenario)
                if hit is not None:
                    raw[i] = hit.result
                    self._emit(scenario, resolved, total, 0.0, True)
                    resolved += 1
                else:
                    pending.append((i, scenario))
        else:
            pending = list(enumerate(scenarios))

        # Resolve against the *pending* cell count so the default rule
        # keeps its historical shape: a one-cell dispatch (tiny matrix,
        # nearly-warm cache) runs in-process instead of paying a pool
        # spawn for zero parallelism. Explicitly named backends are
        # honoured as given.
        effective = min(self.max_workers, len(pending)) if pending else 1
        backend = resolve_backend(
            self.backend, max_workers=effective, mp_context=self.mp_context,
            **self.backend_options,
        )
        synth_stats: dict[str, dict[str, int]] = {}
        if pending:
            def _on_complete(pos: int, outcome: CellOutcome) -> None:
                nonlocal resolved
                _, scenario = pending[pos]
                # Store as cells complete, not after the whole run: one
                # failing cell must not discard the finished work of
                # every other cell. Storing before the progress line
                # means a printed cell survives a kill of this process.
                if cache is not None:
                    cache.store(scenario, outcome.result)
                self._emit(
                    scenario, resolved, total, outcome.wall_seconds, False
                )
                resolved += 1

            # The parent evaluates serial cells in-process, so it needs
            # the disk layers too; pool workers attach via the
            # initializer. Restore the caller's configuration afterwards
            # — a sweep must not clobber dirs installed directly through
            # set_dp_cache_dir/set_hints_cache_dir, nor leave the memos
            # pointed at a dir the caller may delete.
            saved = snapshot_persistent_caches()
            if self.cache_dir:
                configure_persistent_caches(self.cache_dir)
            try:
                outcomes = backend.run(
                    [scenario for _, scenario in pending],
                    evaluate_cell,
                    on_complete=_on_complete,
                    initializer=(
                        configure_persistent_caches if self.cache_dir else None
                    ),
                    initargs=(self.cache_dir,),
                )
            finally:
                restore_persistent_caches(saved)
            for (i, scenario), outcome in zip(pending, outcomes):
                raw[i] = outcome.result
                add_stats(synth_stats, outcome.cache_stats)
        wall = time.perf_counter() - start

        results: list[ScenarioResult] = []
        skipped: dict[str, list[str]] = {}
        for scenario, result in zip(scenarios, raw):
            if result is None:
                # Dead cell: every requested policy was infeasible or
                # unsupported there.
                skipped[scenario.scenario_id] = list(scenario.policies)
                continue
            results.append(result)
            missing = [p for p in scenario.policies if p not in result.table]
            if missing:
                skipped[scenario.scenario_id] = missing
        if not results:
            raise ExperimentError(
                f"no scenario cell could build any of {list(matrix.policies)} "
                f"— every cell was skipped: {sorted(skipped)}"
            )
        # Backends with scheduling diagnostics (the distributed fabric's
        # per-host throughput/loss counters) surface them in the rendered
        # report; like wall time they stay out of the JSON.
        stats_fn = getattr(backend, "stats", None)
        return SweepReport(
            results=results,
            seed=matrix.seed,
            wall_seconds=wall,
            max_workers=backend.workers_for(len(pending)),
            skipped=skipped,
            backend=backend.name,
            cell_cache=cache.stats() if cache is not None else {},
            synthesis_cache=synth_stats,
            backend_stats=stats_fn() if callable(stats_fn) else {},
        )
