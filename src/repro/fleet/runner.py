"""Serve one fleet scenario cell: per-region streams, routed, merged.

The evaluation shape mirrors the single-region path
(:func:`repro.scenarios.runner.run_scenario`) with one extra layer:

1. Every region generates its own request stream. Region 0 draws from
   the *exact* seed path of the cell's single-region sibling
   (``child_seed(seed, "tenant", t)`` — common random numbers: adding a
   fleet axis replays the sibling's workload at home). Regions ``r >= 1``
   draw fresh streams from ``child_seed(seed, "region", name, "tenant",
   t)`` with the arrival curve phase-shifted by ``2*pi*r/R`` — each
   region peaks at its own local busy hour.
2. The merged arrival-ordered stream is routed **once**, policy-
   independently, by the fleet's :class:`~repro.fleet.routing
   .RoutingPolicy` under the deterministic occupancy proxy; a
   ``region-failover`` fault compiles to a dark window that drains its
   region's traffic to the survivors.
3. Each sizing policy serves every region's assigned sub-stream on the
   cell's executor; remote-served requests pay the topology's RTT as a
   shift of their stage timeline. The per-region results merge back into
   one :class:`~repro.runtime.results.RunResult` per policy, so the
   comparison table and its normalisation are computed exactly as in the
   single-region path.

Everything here is a pure function of the scenario spec, so fleet cells
inherit the sweep determinism contract: bit-identical across execution
backends, byte-identical on a warm cache replay.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import math
import typing as _t

import numpy as np

from ..cluster.faults import compile_region_failover
from ..errors import TraceError
from ..rng import child_seed
from ..runtime.results import OutcomeColumns, RunResult
from ..workflow.request import RequestBlock
from .routing import RoutingPlan, route_requests
from .topology import FleetConfig

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.session import Session
    from ..policies.base import SizingPolicy
    from ..scenarios.matrix import Scenario
    from ..scenarios.report import ScenarioResult
    from ..traces.workload import ArrivalSpec
    from ..workflow.catalog import Workflow

__all__ = [
    "run_fleet_scenario",
    "fleet_arrival_source",
    "fleet_requests",
    "region_arrival",
]

#: Aggregated platform extras that are per-request rates/means — combined
#: across regions as a served-request-weighted mean. Everything else is a
#: count and sums. ``hit_rate`` is cumulative on the policy object, so the
#: last region's reading already covers the whole cell (see below).
_RATE_PREFIXES = ("mean_",)
_RATE_KEYS = frozenset({"straggler_exposure"})


def _is_rate_like(key: str) -> bool:
    return (
        key.endswith("_rate")
        or key.startswith(_RATE_PREFIXES)
        or key in _RATE_KEYS
    )


def region_arrival(arrival, region_index: int, n_regions: int):
    """The arrival spec region ``region_index`` of ``n_regions`` draws from.

    Curves with a phase (diurnal swings and the storms stacked on them)
    shift by the region's slice of the period — each region peaks at its
    own local busy hour; phase-free kinds (poisson, constant, burst,
    azure, replay) differ only through their seeds. Region 0 keeps the
    spec untouched. Shared by the batch cell evaluator and the serving
    loop's fleet source.
    """
    if region_index == 0 or arrival.kind not in ("diurnal", "storm"):
        return arrival
    offset = 2.0 * math.pi * region_index / n_regions
    return dataclasses.replace(arrival, phase=arrival.phase + offset)


def fleet_arrival_source(
    specs: "_t.Sequence[ArrivalSpec]",
    rngs: "_t.Sequence[np.random.Generator]",
    workflow: str | None = None,
) -> _t.Iterator[tuple[float, int]]:
    """Merged ``(arrival_ms, home_region)`` stream over per-region streams.

    One unbounded :meth:`~repro.traces.workload.ArrivalSpec.stream` per
    region (``specs[r]`` drawn with ``rngs[r]``), lazily heap-merged in
    timestamp order with the region index as the deterministic
    tie-break — the serving counterpart of the sweep's merged fleet
    stream. Each region's stream is untouched by how far the merge is
    drained, so a fixed seed replays it region by region.
    """
    if len(specs) != len(rngs):
        raise TraceError(
            f"fleet source wants one rng per region, got {len(specs)} "
            f"spec(s) and {len(rngs)} rng(s)"
        )
    return heapq.merge(*(
        zip(spec.stream(rng, workflow), itertools.repeat(region))
        for region, (spec, rng) in enumerate(zip(specs, rngs))
    ))


def fleet_requests(
    workflow: "Workflow", scenario: "Scenario", slo_ms: float
) -> tuple[RequestBlock, list[int]]:
    """The fleet cell's merged stream and each request's home region.

    Returns the globally renumbered arrival-ordered requests plus a
    parallel list of home-region indices. Region 0's stream is
    byte-identical to the single-region sibling's
    (:func:`~repro.scenarios.runner.scenario_requests`).
    """
    from ..scenarios.runner import (
        _arrival_merge,
        _tenant_plan,
        merge_tenant_streams,
        scenario_requests,
    )
    from ..traces.workload import generate_requests

    fleet = scenario.fleet
    per_region = [scenario_requests(workflow, scenario, slo_ms)]
    for r, name in enumerate(fleet.regions[1:], start=1):
        config, seeds = _tenant_plan(
            scenario, slo_ms,
            region_arrival(scenario.effective_arrival(), r, len(fleet.regions)),
            ("region", name),
        )
        streams = [generate_requests(workflow, config, seed=s) for s in seeds]
        per_region.append(
            streams[0] if scenario.tenants == 1
            else merge_tenant_streams(streams)
        )
    # The tenant merge one level up: deterministic even when regions share
    # timestamps; each request's source stream is its home region.
    return _arrival_merge(per_region)


def _merge_columns(
    parts: list[tuple[list[int], OutcomeColumns]], rtt_ms: np.ndarray
) -> OutcomeColumns:
    """Put each region's rows back at their global request positions.

    A remote-served request pays the cross-region hop: its whole stage
    timeline shifts by the RTT, so end-to-end latency grows by exactly
    the link penalty while per-stage durations (and allocations) stay
    untouched.
    """
    functions = parts[0][1].functions
    regions = [columns.reordered(functions) for _, columns in parts]
    back = np.argsort(np.concatenate([indices for indices, _ in parts]))

    def merged(pick: _t.Callable[[OutcomeColumns], np.ndarray]) -> np.ndarray:
        return np.concatenate([pick(columns) for columns in regions])[back]

    order = None
    if any(columns.order is not None for columns in regions):
        identity = np.arange(len(functions))
        order = merged(
            lambda c: c.order if c.order is not None
            else np.tile(identity, (c.n, 1))
        )
    return OutcomeColumns(
        request_ids=np.arange(back.size, dtype=np.int64),
        arrivals=merged(lambda c: c.arrivals),
        slos=merged(lambda c: c.slos),
        functions=functions,
        sizes=merged(lambda c: c.sizes),
        starts=merged(lambda c: c.starts) + rtt_ms[:, None],
        ends=merged(lambda c: c.ends) + rtt_ms[:, None],
        order=order,
    )


def _merge_region_extras(
    per_region: list[tuple[int, dict[str, _t.Any]]],
) -> dict[str, float]:
    """Combine per-region platform extras into cell-level values.

    Rates and means weight by the region's served-request count; counters
    sum. ``hit_rate`` is read off the (shared) policy object after each
    region run, so the last reading already aggregates the whole cell.
    """
    keys = dict.fromkeys(key for _, extras in per_region for key in extras)
    merged: dict[str, float] = {}
    for key in keys:
        readings = [
            (n, float(extras[key]))
            for n, extras in per_region
            if key in extras
        ]
        if key == "hit_rate":
            merged[key] = readings[-1][1]
        elif _is_rate_like(key):
            total = sum(n for n, _ in readings)
            merged[key] = (
                sum(n * v for n, v in readings) / total if total else 0.0
            )
        else:
            merged[key] = sum(v for _, v in readings)
    return merged


def run_fleet_scenario(
    session: "Session",
    scenario: "Scenario",
    slo_ms: float,
    suite: _t.Mapping[str, "SizingPolicy"],
) -> "ScenarioResult":
    """Evaluate one fleet cell end to end (see the module docstring)."""
    from ..scenarios.runner import cell_result

    fleet: FleetConfig = scenario.fleet
    n_regions = len(fleet.regions)
    requests, homes = fleet_requests(session.workflow, scenario, slo_ms)
    total = len(requests)
    arrivals = requests.arrivals.tolist()

    outage = None
    if (
        scenario.faults is not None
        and scenario.faults.kind == "region-failover"
    ):
        # The outage horizon is the *shortest* region's traffic span, so
        # the dark window overlaps live traffic no matter which region the
        # fault seed picks (phase-offset regions finish their fixed-count
        # streams at very different times). The seed derivation mirrors
        # the cluster-side fault kinds, so the request streams stay
        # fault-independent (common random numbers).
        last_per_region = [0.0] * n_regions
        for t_ms, home in zip(arrivals, homes):
            if t_ms > last_per_region[home]:
                last_per_region[home] = t_ms
        horizon_ms = max(min(last_per_region), 1.0)
        outage = compile_region_failover(
            scenario.faults,
            child_seed(scenario.seed, "faults", scenario.faults.label),
            n_regions,
            horizon_ms,
        )

    plan: RoutingPlan = route_requests(
        fleet, homes, arrivals, hold_ms=slo_ms, outage=outage
    )
    by_region: list[list[int]] = [[] for _ in range(n_regions)]
    for i, region in enumerate(plan.assigned):
        by_region[region].append(i)

    backend = session.executor(scenario.executor)
    rtt_ms = np.asarray(plan.rtt_ms, dtype=np.float64)
    served_names = [
        fleet.regions[r] for r in range(n_regions) if by_region[r]
    ]
    remote_fraction = (
        sum(1 for i, h in enumerate(homes) if plan.assigned[i] != h) / total
    )
    results: dict[str, RunResult] = {}
    fleet_extras: dict[str, dict[str, float]] = {}
    # Each region serves its assigned sub-stream under locally contiguous
    # ids (executors may index arrays by request id); rows map back to
    # global ids on merge. Every policy serves the same sub-streams.
    sub_streams = [
        (indices, requests.take(indices)) for indices in by_region if indices
    ]
    for name, policy in suite.items():
        parts: list[tuple[list[int], OutcomeColumns]] = []
        collected: list[tuple[int, dict[str, _t.Any]]] = []
        for indices, sub in sub_streams:
            result = backend.run(policy, sub)
            collected.append((len(indices), dict(result.extras)))
            parts.append((indices, result.columns))
        columns = _merge_columns(parts, rtt_ms)
        results[name] = RunResult(
            name, columns=columns, extras=_merge_region_extras(collected)
        )
        met = columns.slo_met()
        vals = {
            "fleet_spillovers": float(plan.spillovers),
            "fleet_failovers": float(plan.failovers),
            "fleet_remote_fraction": remote_fraction,
            "fleet_rtt_penalty_ms": sum(plan.rtt_ms) / total,
        }
        # Per-region accounting keys carry the region name; they live in
        # the JSON extras only (the CSV promotes the fixed fleet columns
        # above, like every other extra).
        for region, region_name in enumerate(fleet.regions):
            served = plan.region_counts[region]
            violations = served - int(met[by_region[region]].sum())
            vals[f"fleet_share_{region_name}"] = served / total
            vals[f"fleet_slo_{region_name}"] = (
                1.0 - violations / served if served else 1.0
            )
        # Per-region cold starts where the platform reports them: the
        # collected list is ordered by region index over served regions.
        for (_, raw), region_name in zip(collected, served_names):
            if "cold_start_rate" in raw:
                vals[f"fleet_cold_start_rate_{region_name}"] = float(
                    raw["cold_start_rate"]
                )
        fleet_extras[name] = vals

    return cell_result(
        scenario, slo_ms, results,
        f"Fleet[{n_regions}x{type(backend).__name__}]",
        added_extras=fleet_extras,
    )
