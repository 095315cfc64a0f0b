"""Benchmark the scenario sweep path and record the perf trajectory.

Unlike the figure benchmarks (which regenerate paper artifacts), this
module tracks the *engine*: sim-kernel event throughput, hint-synthesis
memoisation, end-to-end sweep wall time serial vs process pool (also
on a deliberately heterogeneous matrix), and cold vs warm
content-addressed cell caching. The headline numbers are written to
``BENCH_scenarios.json`` (override the location with
``JANUS_BENCH_OUT``) so successive PRs can compare; its ``provenance``
section records the machine and commit of the last run that wrote it.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time

from repro.scenarios import ScenarioMatrix, SweepRunner
from repro.sim.engine import Simulator
from repro.synthesis.generator import clear_hints_cache, synthesize_hints
from repro.synthesis.dp import clear_dp_cache
from repro.traces.workload import ArrivalSpec

from .conftest import run_once

OUT_PATH = os.environ.get("JANUS_BENCH_OUT", "BENCH_scenarios.json")

_RESULTS: dict[str, object] = {}


def _provenance() -> dict[str, object]:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=12"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        # Sections measured by that run; the others are older.
        "sections": sorted(_RESULTS),
    }


def _write_results() -> None:
    # Read-update-write: running a subset of these tests must refresh only
    # its own sections, not erase the other recorded ones.
    payload: dict[str, object] = {}
    try:
        with open(OUT_PATH, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError):
        pass
    payload.update(_RESULTS)
    payload["provenance"] = _provenance()
    with open(OUT_PATH, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


def _timeout_worker(sim: Simulator, n: int):
    for _ in range(n):
        yield sim.timeout(1.0)


def _fanout_worker(sim: Simulator, n: int):
    for _ in range(n):
        yield sim.all_of([sim.timeout(0.5), sim.timeout(1.0), sim.timeout(1.5)])


def _events_per_sec(make, rounds: int = 3) -> float:
    best = float("inf")
    for _ in range(rounds):
        sim = Simulator()
        make(sim)
        start = time.perf_counter()
        sim.run()
        best = min(best, (time.perf_counter() - start) / sim.processed_events)
    return 1.0 / best


def test_sim_engine_throughput(benchmark):
    """Events/sec of the DES kernel on its two dominant shapes."""
    timeout_eps = run_once(
        benchmark,
        _events_per_sec,
        lambda sim: [sim.process(_timeout_worker(sim, 2000)) for _ in range(50)],
    )
    fanout_eps = _events_per_sec(
        lambda sim: [sim.process(_fanout_worker(sim, 500)) for _ in range(50)]
    )
    print(f"\nsim engine: timeout-loop {timeout_eps:,.0f} ev/s, "
          f"AllOf fan-out {fanout_eps:,.0f} ev/s")
    assert timeout_eps > 50_000  # sanity floor, an order below expectations
    _RESULTS["sim_engine"] = {
        "timeout_loop_events_per_s": timeout_eps,
        "fanout_events_per_s": fanout_eps,
    }
    _write_results()


def test_analytic_batch_throughput(benchmark, bench_requests, bench_samples):
    """Requests/s through the batched analytic executor, per policy.

    The vectorised ``AnalyticExecutor.run`` evaluates each stage across the
    whole request stream in one array pass; the scalar ``run_request`` loop
    is retained as the bit-identity reference. This section records both,
    so the speedup (and any regression in it) stays visible per PR.
    """
    from repro.experiments.common import ia_setup
    from repro.policies.early_binding import GrandSLAMPolicy
    from repro.policies.janus import janus
    from repro.runtime.executor import AnalyticExecutor
    from repro.traces.workload import WorkloadConfig, generate_requests

    wf, profiles, budget = ia_setup(samples=min(bench_samples, 1000), seed=5)
    n = max(10 * bench_requests, 2000)
    requests = generate_requests(wf, WorkloadConfig(n_requests=n), seed=99)
    executor = AnalyticExecutor(wf)

    def batched_rate(make_policy):
        policy = make_policy()
        start = time.perf_counter()
        result = executor.run(policy, requests)
        result.violation_rate  # force the summary math, not just dispatch
        return n / (time.perf_counter() - start)

    def scalar_rate(make_policy):
        policy = make_policy()
        start = time.perf_counter()
        for r in requests:
            executor.run_request(policy, r)
        return n / (time.perf_counter() - start)

    make_grandslam = lambda: GrandSLAMPolicy(wf, profiles)  # noqa: E731
    make_janus = lambda: janus(wf, profiles, budget=budget)  # noqa: E731
    grandslam_eps = run_once(benchmark, batched_rate, make_grandslam)
    janus_eps = batched_rate(make_janus)
    scalar_janus_eps = scalar_rate(make_janus)
    speedup = janus_eps / scalar_janus_eps
    print(f"\nanalytic executor ({n:,} requests): "
          f"GrandSLAM {grandslam_eps:,.0f} req/s, "
          f"Janus {janus_eps:,.0f} req/s batched vs "
          f"{scalar_janus_eps:,.0f} req/s scalar ({speedup:.1f}x)")
    assert speedup > 2.0  # sanity floor, well below the measured ~30-60x
    _RESULTS["analytic"] = {
        "requests": n,
        "grandslam_requests_per_s": grandslam_eps,
        "janus_requests_per_s": janus_eps,
        "janus_scalar_requests_per_s": scalar_janus_eps,
        "batch_speedup": speedup,
    }
    _write_results()


def test_oracle_throughput(benchmark):
    """Requests/s through the Optimal oracle, batched and one row at a time.

    IA and VA, 400 requests each at SLO x1, seed 1; the size is fixed (no
    env scaling) so the guarded batched rate compares across runs. The
    batched rate runs ``AnalyticExecutor.run``, which solves every begun
    request in one pass; the one-row rate begins, sizes and ends each
    request in turn, as the DES cluster and serving paths do. Best of 3.
    """
    from repro.policies.oracle import OraclePolicy
    from repro.runtime.executor import AnalyticExecutor
    from repro.traces.workload import WorkloadConfig, generate_requests
    from repro.workflow.catalog import intelligent_assistant, video_analytics

    cases = [
        (wf, generate_requests(wf, WorkloadConfig(n_requests=400), seed=1))
        for wf in (intelligent_assistant(), video_analytics())
    ]
    n = sum(len(requests) for _, requests in cases)

    def batched():
        start = time.perf_counter()
        sizes = [
            AnalyticExecutor(wf).run(OraclePolicy(wf), requests).columns.sizes
            for wf, requests in cases
        ]
        return time.perf_counter() - start, sizes

    def one_row():
        start = time.perf_counter()
        sizes = []
        for wf, requests in cases:
            oracle = OraclePolicy(wf)
            stages = range(len(wf.chain))
            plans = []
            for request in requests:
                oracle.begin_request(request)
                plans.append([oracle.size_for_stage(i, request, 0.0) for i in stages])
                oracle.end_request(request)
            sizes.append(plans)
        return time.perf_counter() - start, sizes

    batched_s, batched_sizes = run_once(benchmark, batched)
    batched_s = min([batched_s] + [batched()[0] for _ in range(2)])
    one_row_s, one_row_sizes = min(one_row() for _ in range(3))
    for got, want in zip(batched_sizes, one_row_sizes):
        assert got.tolist() == want  # a plan never depends on its batch
    print(f"\noracle ({n} requests, IA+VA): {n / batched_s:,.0f} req/s "
          f"batched, {n / one_row_s:,.0f} req/s one row at a time")
    _RESULTS["oracle"] = {
        "requests": n,
        "batched_seconds": batched_s,
        "batched_requests_per_s": n / batched_s,
        "one_row_requests_per_s": n / one_row_s,
    }
    _write_results()


def test_orion_build_throughput(benchmark):
    """ORION policy builds per second on fixed IA and VA profiles.

    IA and VA at SLO x1 and x1.25, profiled with 1,000 samples at profile
    seed 1; the size is fixed (no env scaling) so the guarded rate
    compares across runs. Profiling happens before the timer: the rate is
    the build alone, as a sweep cell pays it the first time. Every timed
    repeat starts from a cleared plan memo, so the rate counts live builds;
    the memoised rebuild of the same four plans is recorded beside it.
    Best of 3.
    """
    from repro.policies.orion import OrionPolicy, clear_orion_cache
    from repro.profiling.profiler import profile_workflow
    from repro.workflow.catalog import intelligent_assistant, video_analytics

    cases = [
        (wf, profile_workflow(wf, seed=1, samples=1000), wf.slo_ms * scale)
        for wf in (intelligent_assistant(), video_analytics())
        for scale in (1.0, 1.25)
    ]

    def build_all():
        start = time.perf_counter()
        plans = [
            OrionPolicy(wf, profiles, slo_ms=slo).plan
            for wf, profiles, slo in cases
        ]
        return time.perf_counter() - start, plans

    def live():
        clear_orion_cache()
        return build_all()

    seconds, plans = run_once(benchmark, live)
    seconds = min([seconds] + [live()[0] for _ in range(2)])
    memo_s, memo_plans = min(build_all() for _ in range(3))
    assert all(len(plan) == 3 for plan in plans)
    assert memo_plans == plans
    print(f"\norion ({len(cases)} builds, IA+VA): "
          f"{len(cases) / seconds:,.1f} builds/s live, "
          f"memoised rebuild {memo_s * 1000:.3f} ms")
    _RESULTS["orion"] = {
        "builds": len(cases),
        "build_seconds": seconds,
        "builds_per_s": len(cases) / seconds,
        "memoised_ms": memo_s * 1000.0,
    }
    _write_results()


def test_request_stream_throughput(benchmark):
    """Request generation alone, and a long two-tenant cell end to end.

    ``generate_requests`` requests/s for IA, VA and media at 10k requests
    (exact chunked draws, rows and columns); then policy-requests/s of one
    2-tenant IA azure@8 cell with 10k requests per tenant, GrandSLAM and
    Janus, through ``run_scenario`` with warm profile and hint memos:
    generation, tenant merge and both batched runs. Fixed sizes (no env
    scaling) so the guarded cell rate compares across runs. Best of 3.
    """
    from repro.scenarios.matrix import parse_arrival
    from repro.scenarios.registry import scenario_workflow
    from repro.scenarios.runner import run_scenario
    from repro.traces.workload import WorkloadConfig, generate_requests

    n = 10_000

    def generation_rate(name: str) -> float:
        workflow = scenario_workflow(name)
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            generate_requests(workflow, WorkloadConfig(n_requests=n), seed=1)
            best = min(best, time.perf_counter() - start)
        return n / best

    rates = {
        f"{name}_generate_requests_per_s": generation_rate(name)
        for name in ("IA", "VA", "media")
    }
    (cell,) = ScenarioMatrix(
        workflows=("IA",),
        arrivals=(parse_arrival("azure@8"),),
        tenant_counts=(2,),
        policies=("GrandSLAM", "Janus"),
        n_requests=n,
        seed=1,
    ).expand()
    run_scenario(cell)  # warm the profile and hint memos

    def serve():
        start = time.perf_counter()
        result = run_scenario(cell)
        return time.perf_counter() - start, result

    wall, result = run_once(benchmark, serve)
    wall = min([wall] + [serve()[0] for _ in range(2)])
    policy_requests = cell.tenants * n * len(result.table)
    print(f"\nrequest streams ({n:,} requests): " + ", ".join(
        f"{key.split('_')[0]} {rate:,.0f} req/s" for key, rate in rates.items()
    ) + f"; 2-tenant IA cell {policy_requests / wall:,.0f} policy-requests/s")
    _RESULTS["requests"] = {
        **rates,
        "cell_policy_requests": policy_requests,
        "cell_seconds": wall,
        "cell_policy_requests_per_s": policy_requests / wall,
    }
    _write_results()


def test_synthesis_memoisation(benchmark, bench_samples):
    """Live vs memoised hint synthesis for the IA chain."""
    from repro.experiments.common import ia_setup

    wf, profiles, budget = ia_setup(samples=min(bench_samples, 1000), seed=5)
    clear_dp_cache()
    clear_hints_cache()

    def live():
        clear_dp_cache()
        clear_hints_cache()
        start = time.perf_counter()
        synthesize_hints(profiles, wf.chain, budget=budget, workflow_name="IA")
        return time.perf_counter() - start

    live_s = run_once(benchmark, live)
    start = time.perf_counter()
    synthesize_hints(profiles, wf.chain, budget=budget, workflow_name="IA")
    memo_s = time.perf_counter() - start
    print(f"\nsynthesis: live {live_s * 1000:.1f} ms, "
          f"memoised {memo_s * 1000:.3f} ms")
    assert memo_s < live_s
    _RESULTS["synthesis"] = {
        "live_ms": live_s * 1000.0,
        "memoised_ms": memo_s * 1000.0,
    }
    _write_results()


def test_scenario_sweep(benchmark, bench_requests, bench_samples):
    """End-to-end sweep wall time, serial vs process pool, bit-compared."""
    matrix = ScenarioMatrix(
        workflows=("IA", "VA"),
        arrivals=(
            ArrivalSpec(kind="constant"),
            ArrivalSpec(kind="poisson", rate_per_s=8.0),
            ArrivalSpec(kind="azure", rate_per_s=8.0),
        ),
        slo_scales=(1.0, 1.25),
        tenant_counts=(1,),
        n_requests=min(bench_requests, 150),
        samples=min(bench_samples, 800),
        seed=2025,
    )
    serial = run_once(benchmark, SweepRunner(max_workers=1).run, matrix)
    # At least two workers so the pool path (and its determinism) is
    # genuinely exercised even on single-core runners.
    workers = max(2, min(4, os.cpu_count() or 1))
    start = time.perf_counter()
    pooled = SweepRunner(max_workers=workers).run(matrix)
    pooled_s = time.perf_counter() - start
    assert pooled.to_json() == serial.to_json()
    assert serial.num_cells == len(matrix)
    print(f"\nsweep: {serial.num_cells} cells, "
          f"serial {serial.wall_seconds:.2f} s, "
          f"pooled({workers}) {pooled_s:.2f} s")
    print(serial.render())
    _RESULTS["sweep"] = {
        "cells": serial.num_cells,
        "n_requests": matrix.n_requests,
        "samples": matrix.samples,
        "serial_seconds": serial.wall_seconds,
        "pooled_seconds": pooled_s,
        "pool_workers": workers,
        "bit_identical": True,
    }
    _write_results()


def _heterogeneous_matrix(bench_requests: int, bench_samples: int) -> ScenarioMatrix:
    """Cell costs spanning ~6x: mixed tenant counts over two workflows.

    Expansion order interleaves cheap (1-tenant) and expensive (3-tenant)
    cells, so an in-order dispatch would regularly strand a long cell on
    a drained queue — the shape the pool's cost-ordered dispatch targets.
    """
    from repro.traces.workload import ArrivalSpec

    return ScenarioMatrix(
        workflows=("IA", "VA"),
        arrivals=(
            ArrivalSpec(kind="constant"),
            ArrivalSpec(kind="poisson", rate_per_s=8.0),
        ),
        slo_scales=(1.0, 1.25),
        tenant_counts=(1, 3),
        n_requests=min(bench_requests, 120),
        samples=min(bench_samples, 600),
        seed=7,
    )


def test_pool_vs_serial(benchmark, bench_requests, bench_samples):
    """Wall time: the cost-ordered process pool vs serial, one matrix."""
    matrix = _heterogeneous_matrix(bench_requests, bench_samples)
    workers = max(2, min(4, os.cpu_count() or 1))
    costs = sorted(c.cost_estimate() for c in matrix.expand())
    pooled = run_once(
        benchmark, SweepRunner(max_workers=workers, backend="pool").run,
        matrix,
    )
    serial = SweepRunner(max_workers=1, backend="serial").run(matrix)
    assert pooled.to_json() == serial.to_json()
    print(f"\nheterogeneous sweep ({len(matrix)} cells, "
          f"cost spread {costs[-1] / costs[0]:.1f}x): "
          f"pool ({workers} workers) {pooled.wall_seconds:.2f} s, "
          f"serial {serial.wall_seconds:.2f} s")
    _RESULTS["scheduler"] = {
        "cells": len(matrix),
        "cost_spread": costs[-1] / costs[0],
        "pool_workers": workers,
        "pool_seconds": pooled.wall_seconds,
        "serial_seconds": serial.wall_seconds,
        "bit_identical": True,
    }
    _write_results()


def test_trace_record_replay(benchmark, bench_requests, bench_samples, tmp_path):
    """Trace-file workloads: NHPP sampling rate, write/load, replay sweep."""
    from repro.traces.diurnal import DiurnalRate, nhpp_arrivals
    from repro.traces.trace_file import (
        generate_workload_trace, load_trace, save_trace,
    )
    from repro.rng import make_rng

    curve = DiurnalRate.sinusoid(100.0, amplitude=0.8, period_s=60.0)

    def sample():
        start = time.perf_counter()
        nhpp_arrivals(curve, 100_000, make_rng(3))
        return 100_000 / (time.perf_counter() - start)

    nhpp_per_s = run_once(benchmark, sample)

    trace = generate_workload_trace(
        ("IA", "VA"), 50_000,
        arrival=ArrivalSpec(kind="diurnal", rate_per_s=100.0, period_s=60.0),
        seed=7, name="bench",
    )
    path = tmp_path / "bench.jsonl"
    start = time.perf_counter()
    save_trace(trace, path)
    write_s = time.perf_counter() - start
    start = time.perf_counter()
    load_trace(path)
    load_s = time.perf_counter() - start

    small = tmp_path / "sweep-trace.jsonl"
    save_trace(
        generate_workload_trace(
            ("IA", "VA"), max(2 * min(bench_requests, 120), 100),
            arrival=ArrivalSpec(
                kind="diurnal", rate_per_s=10.0, period_s=10.0
            ),
            seed=11, name="sweep",
        ),
        small,
    )
    matrix = ScenarioMatrix(
        workflows=("IA", "VA"),
        arrivals=(),
        traces=(str(small),),
        slo_scales=(1.0, 1.25),
        n_requests=min(bench_requests, 120),
        samples=min(bench_samples, 600),
        seed=13,
    )
    start = time.perf_counter()
    report = SweepRunner(max_workers=1).run(matrix)
    replay_s = time.perf_counter() - start
    print(f"\ntrace workloads: NHPP {nhpp_per_s:,.0f} arrivals/s, "
          f"50k-record write {write_s * 1000:.0f} ms / load "
          f"{load_s * 1000:.0f} ms, {report.num_cells}-cell replay sweep "
          f"{replay_s:.2f} s")
    _RESULTS["trace_workloads"] = {
        "nhpp_arrivals_per_s": nhpp_per_s,
        "write_50k_ms": write_s * 1000.0,
        "load_50k_ms": load_s * 1000.0,
        "replay_sweep_cells": report.num_cells,
        "replay_sweep_seconds": replay_s,
    }
    _write_results()


def test_streaming_metrics_throughput(benchmark):
    """P2+Welford fold rate vs the exact retained-array baseline.

    The streaming path buys O(1) memory; this records what it costs (or
    saves) in samples/s against appending to a list and calling
    ``numpy.percentile`` once at the end.
    """
    import numpy as np

    from repro.metrics.stats import percentile_summary
    from repro.metrics.streaming import StreamingSummary

    n = 200_000
    samples = np.random.default_rng(3).lognormal(5.0, 0.6, size=n)
    values = [float(x) for x in samples]

    def stream():
        summary = StreamingSummary()
        start = time.perf_counter()
        for x in values:
            summary.add(x)
        summary.snapshot()
        return n / (time.perf_counter() - start)

    streaming_per_s = run_once(benchmark, stream)

    start = time.perf_counter()
    retained: list[float] = []
    for x in values:
        retained.append(x)
    exact = percentile_summary(np.asarray(retained))
    exact_s = time.perf_counter() - start
    exact_per_s = n / exact_s

    est = StreamingSummary()
    for x in values:
        est.add(x)
    p99_err = abs(est.percentile(99.0) - exact["p99"]) / exact["p99"]
    print(f"\nstreaming metrics ({n:,} samples): "
          f"P2+Welford {streaming_per_s:,.0f} samples/s, "
          f"exact-array {exact_per_s:,.0f} samples/s, "
          f"P99 rel err {p99_err:.4%}")
    assert p99_err < 0.01
    _RESULTS["serving"] = {
        "stream_samples": n,
        "streaming_samples_per_s": streaming_per_s,
        "exact_array_samples_per_s": exact_per_s,
        "p99_rel_error": p99_err,
    }
    _write_results()


def test_serving_loop_throughput(benchmark, bench_samples):
    """Requests/s through the full asyncio serving loop (unpaced)."""
    from repro.serving import ServingConfig, run_service

    config = ServingConfig(
        source=ArrivalSpec(kind="poisson", rate_per_s=200.0),
        max_requests=2000,
        samples=min(bench_samples, 600),
        metrics_every=500,
    )
    report = run_once(benchmark, run_service, config)
    req_per_s = report.completed / report.wall_seconds
    print(f"\nserving loop: {report.completed} requests in "
          f"{report.wall_seconds:.2f} s ({req_per_s:,.0f} req/s)")
    assert report.dropped == 0
    serving = dict(_RESULTS.get("serving", {}))
    serving.update({
        "loop_requests": report.completed,
        "loop_seconds": report.wall_seconds,
        "loop_requests_per_s": req_per_s,
    })
    _RESULTS["serving"] = serving
    _write_results()


def test_cluster_congested_cell(benchmark):
    """The DES cluster cell above the warm pool's knee.

    IA at constant@125 (8 requests/s), 200 requests, SLO x2, GrandSLAM and
    Janus on the default ``ClusterConfig``: most pods wait for capacity,
    so the cell prices the pending-pod path. The size is fixed (no env
    scaling) so the guarded rate compares across runs; events per
    invocation is the machine-independent cost of that path.
    """
    from repro.api import Session
    from repro.scenarios.matrix import parse_arrival
    from repro.traces.workload import WorkloadConfig, generate_requests
    from repro.workflow.catalog import intelligent_assistant

    wf = intelligent_assistant()
    slo_ms = 2.0 * wf.slo_ms
    session = Session(wf, slo_ms=slo_ms, samples=400, executor="cluster")
    requests = generate_requests(
        wf,
        WorkloadConfig(
            n_requests=200, arrival=parse_arrival("constant@125"),
            slo_ms=slo_ms,
        ),
        seed=1,
    )
    platform = session.executor()

    def serve():
        suite = session.suite(["GrandSLAM", "Janus"])
        start = time.perf_counter()
        results = {
            name: platform.run(policy, requests)
            for name, policy in suite.items()
        }
        return time.perf_counter() - start, results

    wall, results = run_once(benchmark, serve)
    for _ in range(2):
        wall = min(wall, serve()[0])
    janus = results["Janus"]
    invocations = sum(len(o.stages) for o in janus.outcomes)
    events_per_invocation = janus.extras["events_processed"] / invocations
    rate = len(results) * len(requests) / wall
    print(f"\ncluster congested cell: {rate:,.0f} policy-requests/s "
          f"({wall:.3f} s), Janus {events_per_invocation:.1f} events per "
          f"invocation, {janus.extras['throttled']} ticks waited")
    assert events_per_invocation <= 100  # polling every tick cost 366
    _RESULTS["cluster"] = {
        "requests": len(requests),
        "policies": len(results),
        "congested_seconds": wall,
        "congested_requests_per_s": rate,
        "events_per_invocation": events_per_invocation,
    }
    _write_results()


def test_fault_injection(benchmark, bench_requests, bench_samples):
    """Fault-schedule compilation rate and faulted-vs-clean DES cell cost.

    Fault schedules are compiled per cell per run, so compilation must be
    cheap; the faulted-cell wall time records what the preemption race
    (AnyOf per invocation attempt plus retries) adds on top of a clean
    cluster cell.
    """
    from repro.cluster import ClusterConfig
    from repro.cluster.faults import FaultSpec, compile_fault_schedule
    from repro.scenarios import parse_fault

    spec = FaultSpec(kind="preempt", rate_per_min=120.0, recovery_ms=1000.0)

    def compile_rate():
        rounds = 200
        start = time.perf_counter()
        for i in range(rounds):
            compile_fault_schedule(spec, i, 8, 600_000.0)
        return rounds / (time.perf_counter() - start)

    schedules_per_s = run_once(benchmark, compile_rate)
    events = len(compile_fault_schedule(spec, 0, 8, 600_000.0))

    def cluster_matrix(faults):
        return ScenarioMatrix(
            workflows=("IA",),
            arrivals=(ArrivalSpec(kind="poisson", rate_per_s=8.0),),
            slo_scales=(1.0,),
            policies=("GrandSLAM", "Janus"),
            executors=("cluster",),
            cluster=ClusterConfig(n_vms=2, autoscale=False),
            faults=faults,
            n_requests=min(bench_requests, 120),
            samples=min(bench_samples, 600),
            seed=23,
        )

    start = time.perf_counter()
    SweepRunner(max_workers=1).run(cluster_matrix((None,)))
    clean_s = time.perf_counter() - start
    start = time.perf_counter()
    faulted_report = SweepRunner(max_workers=1).run(
        cluster_matrix((parse_fault("preempt@60:1000"),))
    )
    faulted_s = time.perf_counter() - start
    retries = faulted_report.results[0].extra("Janus", "retries")
    print(f"\nfault injection: {schedules_per_s:,.0f} schedules/s "
          f"({events} events over a 10 min horizon), DES cell clean "
          f"{clean_s:.2f} s vs faulted {faulted_s:.2f} s "
          f"({retries:.0f} retries)")
    _RESULTS["faults"] = {
        "schedules_per_s": schedules_per_s,
        "schedule_events_10min": events,
        "clean_cell_seconds": clean_s,
        "faulted_cell_seconds": faulted_s,
        "faulted_cell_retries": retries,
    }
    _write_results()


def test_fleet_sweep(benchmark):
    """Routing-engine throughput and the cost of a 3-region fleet cell.

    The :class:`StreamRouter` sits on the per-arrival hot path of both
    the batch fleet evaluator and the serving loop (one heap op per
    request), so its raw rate is worth pinning. The fleet matrix here is
    deliberately *fixed-size* (no env scaling): ``remote_fraction`` is
    then fully deterministic for the seed, and guarding it doubles as a
    routing behavioural-drift alarm, machine-independent by construction.
    """
    from repro.fleet import FleetConfig, StreamRouter
    from repro.scenarios import parse_fault

    fleet = FleetConfig(
        regions=("us-east", "eu-west", "ap-south"),
        routing="spillover",
        capacity=4,
    )

    def routing_rate():
        n = 50_000
        router = StreamRouter(fleet, hold_ms=250.0)
        start = time.perf_counter()
        for i in range(n):
            router.route(i % 3, i * 5.0)
        return n / (time.perf_counter() - start)

    routed_per_s = run_once(benchmark, routing_rate)

    def fleet_matrix(faults):
        return ScenarioMatrix(
            workflows=("IA",),
            arrivals=(
                ArrivalSpec(kind="diurnal", rate_per_s=20.0, period_s=10.0),
            ),
            slo_scales=(1.0,),
            policies=("Janus",),
            fleets=(fleet,),
            faults=faults,
            n_requests=120,
            samples=400,
            seed=23,
        )

    start = time.perf_counter()
    clean_report = SweepRunner(max_workers=1).run(fleet_matrix((None,)))
    clean_s = time.perf_counter() - start
    start = time.perf_counter()
    faulted_report = SweepRunner(max_workers=1).run(
        fleet_matrix((parse_fault("region-failover@2000"),))
    )
    faulted_s = time.perf_counter() - start
    remote = clean_report.results[0].extra("Janus", "fleet_remote_fraction")
    failovers = faulted_report.results[0].extra("Janus", "fleet_failovers")
    print(f"\nfleet: {routed_per_s:,.0f} routed req/s, 3-region cell "
          f"{clean_s:.2f} s clean vs {faulted_s:.2f} s failover "
          f"({remote:.1%} served remotely, {failovers:.0f} failovers)")
    _RESULTS["fleet"] = {
        "routed_requests_per_s": routed_per_s,
        "clean_cell_seconds": clean_s,
        "failover_cell_seconds": faulted_s,
        "remote_fraction": remote,
        "failover_cell_failovers": failovers,
    }
    _write_results()


class SleepCell:
    """Synthetic cell whose calibrated cost *is* its runtime.

    ``time.sleep`` releases the GIL and burns no CPU, so two workers
    overlap these cells fully even on a single-core runner — which makes
    the recorded fabric speedup a property of the scheduler, not of the
    machine CI happens to land on. Module-level so pickled references
    resolve on the worker side.
    """

    def __init__(self, value: int, sleep_s: float) -> None:
        self.value = value
        self.sleep_s = sleep_s

    def cost_estimate(self) -> float:
        return self.sleep_s


def eval_sleep_cell(cell: SleepCell) -> int:
    time.sleep(cell.sleep_s)
    return cell.value


def test_distributed_fabric(benchmark, bench_requests, bench_samples):
    """The distributed backend: bit-identity on real cells, then the
    guarded 1-worker vs 2-worker fabric speedup on sleep cells.

    Part one runs the heterogeneous matrix through two real socket-launched
    local workers and byte-compares the report against serial — the real
    walls (and the runner's core count) are recorded for the trajectory but
    deliberately not guarded, since real-cell overlap depends on CPUs.
    Part two reshapes the same matrix's calibrated cost spread into
    :class:`SleepCell` work and drives it through the full coordinator
    (wire protocol, the one cost-ordered queue) with in-process workers;
    its ``two_worker_speedup`` is machine-independent and guarded by
    ``check_regression.py``.
    """
    import threading

    from repro.scenarios import DistributedBackend
    from repro.scenarios.worker import serve

    matrix = _heterogeneous_matrix(bench_requests, bench_samples)
    serial = run_once(
        benchmark, SweepRunner(max_workers=1, backend="serial").run, matrix
    )
    start = time.perf_counter()
    dist = SweepRunner(
        backend="distributed",
        backend_options={"hosts": "local:2", "connect_timeout": 60.0},
    ).run(matrix)
    dist_s = time.perf_counter() - start
    assert dist.to_json() == serial.to_json()
    host_stats = dist.backend_stats["hosts"]["local"]
    assert host_stats["workers"] == 2
    assert host_stats["completed"] == len(matrix)

    costs = [cell.cost_estimate() for cell in matrix.expand()]
    scale = 4.0 / sum(costs)
    cells = [SleepCell(i, c * scale) for i, c in enumerate(costs)]

    def fabric_wall(labels: list[str]) -> float:
        threads: list[threading.Thread] = []

        def on_listen(host: str, port: int) -> None:
            for label in labels:
                thread = threading.Thread(
                    target=serve, args=((host, port), label), daemon=True
                )
                thread.start()
                threads.append(thread)

        backend = DistributedBackend(
            hosts=",".join(labels), launch=False, bind="127.0.0.1",
            on_listen=on_listen,
        )
        start = time.perf_counter()
        out = backend.run(cells, eval_sleep_cell)
        wall = time.perf_counter() - start
        for thread in threads:
            thread.join(timeout=10.0)
        assert out == list(range(len(cells)))
        return wall

    one_worker_s = fabric_wall(["w1"])
    two_worker_s = fabric_wall(["w1", "w2"])
    speedup = one_worker_s / two_worker_s
    print(f"\ndistributed fabric: {len(matrix)} real cells on 2 local "
          f"workers {dist_s:.2f} s vs serial {serial.wall_seconds:.2f} s "
          f"({os.cpu_count()} CPU(s)); sleep-cell fabric 1 worker "
          f"{one_worker_s:.2f} s vs 2 workers {two_worker_s:.2f} s "
          f"({speedup:.2f}x)")
    assert speedup > 1.5
    _RESULTS["distributed"] = {
        "cells": len(matrix),
        "cpu_count": os.cpu_count(),
        "serial_seconds": serial.wall_seconds,
        "two_worker_real_seconds": dist_s,
        "one_worker_sleep_seconds": one_worker_s,
        "two_worker_sleep_seconds": two_worker_s,
        "two_worker_speedup": speedup,
        "bit_identical": True,
    }
    _write_results()


def test_cell_cache_warm_vs_cold(benchmark, bench_requests, bench_samples, tmp_path):
    """Cold sweep (populating the cache) vs fully warm replay."""
    matrix = _heterogeneous_matrix(bench_requests, bench_samples)
    cache_dir = tmp_path / "sweep-cache"
    clear_dp_cache()
    clear_hints_cache()

    def cold_run():
        return SweepRunner(max_workers=1, cache_dir=cache_dir).run(matrix)

    cold = run_once(benchmark, cold_run)
    start = time.perf_counter()
    warm = SweepRunner(max_workers=1, cache_dir=cache_dir).run(matrix)
    warm_s = time.perf_counter() - start
    assert warm.cell_cache == {"hits": len(matrix), "misses": 0}
    assert warm.to_json() == cold.to_json()
    speedup = cold.wall_seconds / warm_s if warm_s > 0 else float("inf")
    print(f"\ncell cache: cold {cold.wall_seconds:.2f} s, "
          f"warm {warm_s * 1000:.0f} ms ({speedup:.0f}x)")
    _RESULTS["cell_cache"] = {
        "cells": len(matrix),
        "cold_seconds": cold.wall_seconds,
        "warm_seconds": warm_s,
        "warm_hits": warm.cell_cache["hits"],
        "byte_identical": True,
    }
    _write_results()
