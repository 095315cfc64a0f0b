"""Which entry point of each layer the traced run wraps, and the
per-layer metrics derived from what the wrappers record.

Layer names are the ``repro`` subpackages. Each probe names the public
entry point it wraps; :data:`EXPECTED` lists, per workload, the probes
that must fire, so a rename that would leave a metric silently at 0
fails the traced run instead.
"""

from __future__ import annotations

import statistics
import typing as _t

from tracing import ASYNC, BENCH, COUNT, COUNTER, GENERATOR, SPAN, Ledger, Probe, Tracer

__all__ = [
    "PROBES", "EXPECTED", "gauges", "layer_metrics", "unit_of",
    "coverage_pct", "missing_probes", "layer_table",
]


def _count_items(ledger: Ledger, args: tuple, item: _t.Any, duration: float) -> None:
    ledger.values["traces.requests"] += 1


def _routing(ledger: Ledger, args: tuple, plan: _t.Any, duration: float) -> None:
    ledger.values["fleet.routed"] += len(plan.assigned)
    ledger.values["fleet.remote"] += plan.spillovers + plan.failovers


def _platform(ledger: Ledger, args: tuple, result: _t.Any, duration: float) -> None:
    platform = args[0]
    pool = platform.pool
    ledger.values["cluster.pending_polls"] += pool.throttled
    ledger.values["cluster.cold_starts"] += pool.cold_starts
    ledger.values["cluster.acquisitions"] += pool.cold_starts + pool.warm_hits
    ledger.values["sim.events"] += platform.sim.processed_events


def _serving(ledger: Ledger, args: tuple, report: _t.Any, duration: float) -> None:
    ledger.values["serving.completed"] += report.completed
    ledger.values["serving.dropped"] += report.dropped
    ledger.values["serving.swaps"] += report.swaps
    ledger.values["serving.events_retained"] += len(args[0].events.events)


def _decide(ledger: Ledger, args: tuple, decision: _t.Any, duration: float) -> None:
    ledger.values["adapter.decisions"] += 1
    ledger.values["adapter.hits"] += bool(decision.hit)
    ledger.samples["adapter.decide_us"].append(duration * 1e6)


def _decide_many(ledger: Ledger, args: tuple, result: _t.Any, duration: float) -> None:
    sizes, hits = result
    ledger.values["adapter.decisions"] += int(sizes.size)
    ledger.values["adapter.hits"] += int(hits.sum())


def _cell(ledger: Ledger, args: tuple, outcome: _t.Any, duration: float) -> None:
    ledger.samples["scenarios.cell_wall_s"].append(duration)


def _scenario_id(args: tuple) -> str:
    return args[0].scenario_id


PROBES: tuple[Probe, ...] = (
    Probe("profiling.profile_workflow", "profiling", SPAN,
          ("repro.profiling.profiler", "profile_workflow")),
    Probe("synthesis.synthesize_hints", "synthesis", SPAN,
          ("repro.synthesis.generator", "synthesize_hints")),
    Probe("synthesis.synthesize_dag_hints", "synthesis", SPAN,
          ("repro.synthesis.dag", "synthesize_dag_hints")),
    Probe("policies.build", "policies", SPAN,
          ("repro.policies.registry", "PolicyRegistry", "build")),
    Probe("policies.oracle", "policies", COUNTER,
          ("repro.policies.oracle", "OraclePolicy", "begin_request")),
    Probe("traces.generate_requests", "traces", SPAN,
          ("repro.traces.workload", "generate_requests")),
    Probe("traces.iter_requests", "traces", GENERATOR,
          ("repro.traces.workload", "iter_requests"), observe=_count_items),
    Probe("functions.sample_dynamics", "functions", COUNTER,
          ("repro.functions.model", "FunctionModel", "sample_dynamics")),
    Probe("runtime.chain", "runtime", SPAN,
          ("repro.runtime.executor", "AnalyticExecutor", "run")),
    Probe("runtime.dag", "runtime", SPAN,
          ("repro.runtime.dag_executor", "DagAnalyticExecutor", "run")),
    Probe("runtime.compare", "runtime", SPAN,
          ("repro.runtime.driver", "compare")),
    Probe("fleet.cell", "fleet", SPAN,
          ("repro.fleet.runner", "run_fleet_scenario")),
    Probe("fleet.route", "fleet", SPAN,
          ("repro.fleet.routing", "route_requests"), observe=_routing),
    Probe("cluster.run", "cluster", SPAN,
          ("repro.cluster.platform", "ServerlessPlatform", "run"),
          observe=_platform),
    Probe("cluster.pick_vm", "cluster", COUNTER,
          ("repro.cluster.pool", "PoolManager", "_pick_vm")),
    Probe("cluster.vm_fits", "cluster", COUNT,
          ("repro.cluster.vm", "VirtualMachine", "fits")),
    Probe("sim.run", "sim", SPAN,
          ("repro.sim.engine", "Simulator", "run")),
    Probe("serving.run", "serving", ASYNC,
          ("repro.serving.loop", "ServingLoop", "run"), observe=_serving),
    Probe("adapter.decide", "adapter", COUNTER,
          ("repro.adapter.adapter", "JanusAdapter", "decide"),
          observe=_decide),
    Probe("adapter.decide_many", "adapter", COUNTER,
          ("repro.adapter.adapter", "JanusAdapter", "decide_many"),
          observe=_decide_many),
    Probe("workflow.chain", "workflow", COUNTER,
          ("repro.workflow.catalog", "Workflow", "chain")),
    Probe("metrics.stream_add", "metrics", COUNTER,
          ("repro.metrics.streaming", "StreamingSummary", "add")),
    Probe("scenarios.sweep", "scenarios", SPAN,
          ("repro.scenarios.runner", "SweepRunner", "run")),
    Probe("scenarios.cell", "scenarios", SPAN,
          ("repro.scenarios.runner", "evaluate_cell"),
          observe=_cell, context=_scenario_id),
    Probe("scenarios.merge", "scenarios", SPAN,
          ("repro.scenarios.runner", "merge_tenant_streams")),
    Probe("scenarios.cache_lookup", "scenarios", COUNTER,
          ("repro.scenarios.cache", "CellCache", "lookup")),
    Probe("scenarios.cache_store", "scenarios", COUNTER,
          ("repro.scenarios.cache", "CellCache", "store")),
    Probe("scenarios.report_json", "scenarios", SPAN,
          ("repro.scenarios.report", "SweepReport", "to_json")),
    Probe("scenarios.report_render", "scenarios", SPAN,
          ("repro.scenarios.report", "SweepReport", "render")),
)

_EVERYWHERE = (
    "profiling.profile_workflow", "synthesis.synthesize_hints",
    "policies.build", "functions.sample_dynamics",
)
_SWEEP = (
    "traces.iter_requests", "runtime.compare", "scenarios.sweep",
    "scenarios.cell", "scenarios.cache_lookup", "scenarios.cache_store",
    "scenarios.report_json",
)

#: Probes that must fire on each workload (the layers it is meant to load).
EXPECTED: dict[str, tuple[str, ...]] = {
    "sweep-default": _EVERYWHERE + _SWEEP + (
        "policies.oracle", "runtime.chain", "adapter.decide_many",
        "workflow.chain", "scenarios.merge",
    ),
    "sweep-large": _EVERYWHERE + _SWEEP + (
        "synthesis.synthesize_dag_hints", "runtime.chain", "runtime.dag",
        "fleet.cell", "fleet.route", "adapter.decide_many",
        "scenarios.merge",
    ),
    "cluster-knee": _EVERYWHERE + _SWEEP + (
        "cluster.run", "cluster.pick_vm", "cluster.vm_fits", "sim.run",
        "adapter.decide",
    ),
    "serve-drift": _EVERYWHERE + (
        "serving.run", "adapter.decide", "workflow.chain",
        "metrics.stream_add",
    ),
}


def gauges() -> list[_t.Callable[[], dict[str, float]]]:
    """Monotonic counters sampled around each phase: the hint memos."""
    from repro.synthesis.dag import dag_hints_cache_stats
    from repro.synthesis.generator import hints_cache_stats

    def memo() -> dict[str, float]:
        out = {"synthesis.memo_hits": 0.0, "synthesis.memo_misses": 0.0}
        for stats in (hints_cache_stats(), dag_hints_cache_stats()):
            out["synthesis.memo_hits"] += stats["memory_hits"] + stats["disk_hits"]
            out["synthesis.memo_misses"] += stats["syntheses"]
        return out

    return [memo]


class _RunEquivalent:
    """Ledger totals per run-equivalent: one set-up + one pass + one replay."""

    def __init__(self, tracer: Tracer) -> None:
        self.ledgers = [
            ledger for ledger in tracer.ledgers.values() if ledger.instances
        ]
        self.layer_of = tracer.layer_of

    def _sum(self, pick: _t.Callable[[Ledger], float]) -> float:
        return sum(pick(ledger) / ledger.instances for ledger in self.ledgers)

    def calls(self, *probes: str) -> float:
        return self._sum(lambda l: sum(l.calls[p] for p in probes))

    def self_s(self, *probes: str) -> float:
        return self._sum(lambda l: sum(l.self_s.get(p, 0.0) for p in probes))

    def layer_s(self, layer: str) -> float:
        return self._sum(lambda l: sum(
            s for p, s in l.self_s.items() if self.layer_of[p] == layer
        ))

    def value(self, key: str) -> float:
        return self._sum(lambda l: l.values.get(key, 0.0))

    def ratio(self, num: str, den: str) -> float:
        total = self.value(den)
        return self.value(num) / total if total else 0.0


def _quantile(samples: list[float], q: float) -> float:
    if not samples:
        return 0.0
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[
        int(round(q * 100)) - 1
    ]


def layer_metrics(tracer: Tracer, import_s: float, overhead_pct: float,
                  coverage_pct: float) -> dict[str, float]:
    """Every per-layer metric by its ``BENCHMARK.json`` name."""
    run = _RunEquivalent(tracer)
    passes = tracer.ledgers.get("pass", Ledger())
    decide_us = passes.samples.get("adapter.decide_us", [])
    cell_walls = passes.samples.get("scenarios.cell_wall_s", [])
    synth = ("synthesis.synthesize_hints", "synthesis.synthesize_dag_hints")
    return {
        "import.busy_s": import_s,
        "profiling.calls": run.calls("profiling.profile_workflow"),
        "profiling.busy_s": run.layer_s("profiling"),
        "synthesis.calls": run.calls(*synth),
        "synthesis.busy_s": run.layer_s("synthesis"),
        "synthesis.memo_hit_ratio": run.value("synthesis.memo_hits") / max(
            1.0,
            run.value("synthesis.memo_hits") + run.value("synthesis.memo_misses"),
        ),
        "policies.build_calls": run.calls("policies.build"),
        "policies.build_busy_s": run.self_s("policies.build"),
        "policies.oracle_calls": run.calls("policies.oracle"),
        "policies.oracle_busy_s": run.self_s("policies.oracle"),
        "traces.requests": run.value("traces.requests"),
        "traces.busy_s": run.layer_s("traces"),
        "functions.sample_dynamics_calls": run.calls("functions.sample_dynamics"),
        "functions.sample_dynamics_busy_s": run.self_s("functions.sample_dynamics"),
        "runtime.chain_calls": run.calls("runtime.chain"),
        "runtime.chain_busy_s": run.self_s("runtime.chain"),
        "runtime.dag_calls": run.calls("runtime.dag"),
        "runtime.dag_busy_s": run.self_s("runtime.dag"),
        "runtime.compare_busy_s": run.self_s("runtime.compare"),
        "fleet.cells": run.calls("fleet.cell"),
        "fleet.busy_s": run.layer_s("fleet"),
        "fleet.routed": run.value("fleet.routed"),
        "fleet.remote_ratio": run.ratio("fleet.remote", "fleet.routed"),
        "cluster.runs": run.calls("cluster.run"),
        "cluster.busy_s": run.layer_s("cluster"),
        "cluster.pending_polls": run.value("cluster.pending_polls"),
        "cluster.cold_start_ratio": run.ratio(
            "cluster.cold_starts", "cluster.acquisitions"
        ),
        "cluster.vm_fits_calls": run.calls("cluster.vm_fits"),
        "sim.events": run.value("sim.events"),
        "sim.busy_s": run.layer_s("sim"),
        "serving.busy_s": run.layer_s("serving"),
        "serving.completed": run.value("serving.completed"),
        "serving.dropped": run.value("serving.dropped"),
        "serving.swaps": run.value("serving.swaps"),
        "serving.events_retained": run.value("serving.events_retained"),
        "adapter.decisions": run.value("adapter.decisions"),
        "adapter.decide_busy_s": run.layer_s("adapter"),
        "adapter.decide_p50_us": _quantile(decide_us, 0.50),
        "adapter.decide_p99_us": _quantile(decide_us, 0.99),
        "adapter.hit_ratio": run.ratio("adapter.hits", "adapter.decisions"),
        "workflow.chain_calls": run.calls("workflow.chain"),
        "workflow.chain_busy_s": run.layer_s("workflow"),
        "metrics.stream_adds": run.calls("metrics.stream_add"),
        "metrics.stream_busy_s": run.layer_s("metrics"),
        "scenarios.cells": run.calls("scenarios.cell"),
        "scenarios.cell_wall_p50_s": _quantile(cell_walls, 0.50),
        "scenarios.cell_wall_max_s": max(cell_walls, default=0.0),
        "scenarios.merge_busy_s": run.self_s("scenarios.merge"),
        "scenarios.report_busy_s": run.self_s(
            "scenarios.report_json", "scenarios.report_render"
        ),
        "scenarios.cache_store_busy_s": run.self_s("scenarios.cache_store"),
        "scenarios.cache_lookup_busy_s": run.self_s("scenarios.cache_lookup"),
        "trace.overhead_pct": overhead_pct,
        "trace.coverage_pct": coverage_pct,
    }


def unit_of(metric: str) -> str:
    """A per-layer metric's unit, from its name's suffix."""
    for suffix, unit in (("_s", "s"), ("_us", "us"), ("_pct", "%"),
                         ("_ratio", "ratio")):
        if metric.endswith(suffix):
            return unit
    return "count"


def coverage_pct(tracer: Tracer) -> float:
    """Share of the traced measured passes' wall booked to a layer."""
    passes = tracer.ledgers.get("pass")
    if passes is None or passes.wall_s <= 0:
        return 0.0
    return 100.0 * (1.0 - passes.self_s.get(BENCH, 0.0) / passes.wall_s)


def missing_probes(tracer: Tracer, workload: str) -> list[str]:
    """Expected probes of ``workload`` that never fired."""
    calls = tracer.all_calls()
    return [probe for probe in EXPECTED[workload] if not calls[probe]]


def layer_table(tracer: Tracer, kind: str = "pass") -> str:
    """Per-layer self time of one phase kind, per phase instance."""
    ledger = tracer.ledgers.get(kind)
    if ledger is None or not ledger.instances:
        return f"(no {kind} phase traced)"
    per_layer: dict[str, float] = {}
    calls: dict[str, float] = {}
    for probe, seconds in ledger.self_s.items():
        layer = tracer.layer_of[probe]
        per_layer[layer] = per_layer.get(layer, 0.0) + seconds
    for probe, n in ledger.calls.items():
        layer = tracer.layer_of[probe]
        calls[layer] = calls.get(layer, 0.0) + n
    n = ledger.instances
    wall = ledger.wall_s / n
    lines = [
        f"per-layer self time, {kind} phase "
        f"({n} traced instance(s), {wall:.3f} s each)",
        f"{'layer':<12} {'self s':>10} {'share':>8} {'calls':>12}",
    ]
    for layer, seconds in sorted(per_layer.items(), key=lambda kv: -kv[1]):
        lines.append(
            f"{layer:<12} {seconds / n:>10.4f} {100 * seconds / ledger.wall_s:>7.1f}%"
            f" {calls.get(layer, 0) / n:>12.0f}"
        )
    return "\n".join(lines)
