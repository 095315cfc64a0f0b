"""Command-line interface: paper artifacts plus the developer workflow.

Usage::

    janus-repro list
    janus-repro run fig5 --requests 1000
    janus-repro run-all --requests 400 --samples 1000
    janus-repro sweep --workflows IA,VA --arrivals constant,poisson@8 --jobs 4
    janus-repro sweep --backend pool --cache-dir .sweep-cache --progress
    janus-repro trace generate --workflows IA,VA --n 2000 --out day.jsonl
    janus-repro trace summarize day.jsonl
    janus-repro sweep --workflows IA,VA --traces day.jsonl
    janus-repro serve --source diurnal@8 --max-requests 2000
    janus-repro serve --source replay@day.jsonl --max-requests 5000 \
        --snapshot-out snapshot.json --event-log events.jsonl
    janus-repro profile IA --out ia-profiles.json
    janus-repro synthesize ia-profiles.json --tmin 700 --tmax 3000 \
        --out ia-hints.json
    janus-repro inspect ia-hints.json

Any :class:`~repro.errors.ReproError` ends the command with one
``janus-repro: error: <message>`` line on stderr and exit status 1.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
import time
import typing as _t

from .errors import ExperimentError, ReproError
from .experiments.registry import EXPERIMENTS, list_experiments, run_experiment

__all__ = ["main", "build_parser"]

#: CLI knob -> the run() parameter it maps to. Whether an experiment
#: supports a knob is discovered from its run() signature, so new
#: experiments get the flags for free.
_KNOB_PARAMS = {
    "requests": "n_requests",
    "samples": "samples",
    "seed": "seed",
}


def _accepts(run: _t.Callable[..., _t.Any], param: str) -> bool:
    """True when ``run`` takes ``param`` (directly or via ``**kwargs``)."""
    sig = inspect.signature(run)
    if param in sig.parameters:
        kind = sig.parameters[param].kind
        return kind not in (
            inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.VAR_POSITIONAL
        )
    return any(
        p.kind is inspect.Parameter.VAR_KEYWORD
        for p in sig.parameters.values()
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="janus-repro",
        description="Reproduce the Janus paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run_p = sub.add_parser("run", help="run one experiment")
    run_p.add_argument("experiment", choices=sorted(EXPERIMENTS))
    run_p.add_argument("--requests", type=int, default=None,
                       help="requests per run (experiment default otherwise)")
    run_p.add_argument("--samples", type=int, default=None,
                       help="profiling samples per grid point")
    run_p.add_argument("--seed", type=int, default=None)

    all_p = sub.add_parser("run-all", help="run every experiment")
    all_p.add_argument("--requests", type=int, default=None)
    all_p.add_argument("--samples", type=int, default=None)
    all_p.add_argument("--seed", type=int, default=None)

    sweep_p = sub.add_parser(
        "sweep", help="run a scenario-matrix sweep on a process pool"
    )
    sweep_p.add_argument(
        "--workflows", default="IA,VA",
        help="comma-separated scenario workflow names (default: IA,VA)")
    sweep_p.add_argument(
        "--arrivals", default="constant,poisson@8,burst@8,azure@8",
        help="comma-separated arrival tokens: poisson@RATE, burst@RATE, "
             "azure@RATE, diurnal@RATE (requests/s), "
             "constant[@INTERVAL_MS] (back-to-back when no interval is "
             "given), or replay@TRACE_FILE")
    sweep_p.add_argument(
        "--traces", default=None,
        help="comma-separated trace files appended to the arrivals axis "
             "as replay cells (see 'janus-repro trace generate'); each "
             "workflow replays its own sub-stream of an attributed trace")
    sweep_p.add_argument(
        "--slo-scales", default="1.0,1.25",
        help="comma-separated multipliers on each workflow's default SLO")
    sweep_p.add_argument(
        "--tenants", default="1,2",
        help="comma-separated tenant counts (streams merged by arrival)")
    sweep_p.add_argument(
        "--policies", default=None,
        help="comma-separated policy names "
             "(default: Optimal,ORION,GrandSLAM,Janus)")
    sweep_p.add_argument("--requests", type=int, default=None,
                         help="requests per tenant per cell (default 200)")
    sweep_p.add_argument("--samples", type=int, default=None,
                         help="profiling samples per grid point (default 1000)")
    sweep_p.add_argument("--seed", type=int, default=None,
                         help="master seed every cell derives from")
    sweep_p.add_argument("--jobs", type=int, default=None,
                         help="process-pool workers (1 = serial; "
                              "default: CPU count)")
    sweep_p.add_argument(
        "--backend",
        choices=["serial", "pool", "distributed"],
        default=None,
        help="execution backend: 'serial' (in-process), 'pool' (process "
             "pool, most expensive cells dispatched first; --progress "
             "lines print in completion order), 'distributed' "
             "(multi-host coordinator over --hosts, one queue in the "
             "same order; workers need no shared filesystem). Default: "
             "serial when --jobs 1, pool otherwise. Results are "
             "bit-identical across backends")
    sweep_p.add_argument(
        "--hosts", default=None,
        help="distributed fleet as comma-separated host[:nproc] specs, "
             "e.g. 'local:4' or 'local:2,big-box:8,gpu-box'. 'local' "
             "socket-launches workers on this machine; anything else is "
             "launched via 'ssh HOST python3 -m repro.scenarios.worker'. "
             "Needs --backend distributed (default there: local:2)")
    sweep_p.add_argument(
        "--auth-token", default=None, dest="auth_token",
        help="shared fabric secret: the coordinator HMAC-challenges every "
             "connecting worker and rejects peers that cannot answer "
             "(default: $JANUS_FABRIC_TOKEN; needs --backend distributed)")
    sweep_p.add_argument(
        "--cache-dir", default=os.environ.get("JANUS_SWEEP_CACHE"),
        help="content-addressed cache directory: per-cell results plus "
             "persistent DP/hints tables, so repeated or overlapping "
             "sweeps skip already-computed work (default: "
             "$JANUS_SWEEP_CACHE when set, else no caching)")
    sweep_p.add_argument(
        "--no-cache", action="store_true",
        help="disable the cell/DP/hints caches even when --cache-dir or "
             "$JANUS_SWEEP_CACHE is set")
    sweep_p.add_argument(
        "--progress", action="store_true",
        help="print one completion line per cell (id, wall time or "
             "cache hit)")
    sweep_p.add_argument("--baseline", default=None,
                         help="normalisation baseline policy (default: "
                              "Optimal when present)")
    sweep_p.add_argument(
        "--executor", default=None,
        help="comma-separated backend axis, e.g. 'cluster' or "
             "'analytic,cluster' ('auto' selects from the workflow "
             "topology, the default)")
    sweep_p.add_argument(
        "--cluster-config", default=None, dest="cluster_config",
        help="cluster knobs for 'cluster' cells as field=value pairs, "
             "e.g. 'n_vms=2,warm_pool_size=4,autoscale=false,"
             "keepalive_ms=500'")
    sweep_p.add_argument(
        "--faults", default=None,
        help="comma-separated fault-injection axis entries: 'none' (no "
             "faults, keeps fault-free cells' cache keys), "
             "'preempt@RATE_PER_MIN[:RECOVERY_MS]', 'crash@AT_MS', "
             "'storm@MULTIPLIER[:WINDOW_FRACTION]', "
             "'straggler@FRACTION:SLOWDOWN', 'contention[@SCALE]', or "
             "'region-failover[@OUTAGE_MS]' (needs --fleet). "
             "Cluster-side kinds need --executor cluster; storm works on "
             "any executor (it reshapes arrivals into a flash crowd)")
    sweep_p.add_argument(
        "--fleet", default=None,
        help="evaluate every cell on a multi-region fleet: comma-separated "
             "key=value pairs, e.g. 'regions=3,routing=spillover,"
             "capacity=8,rtt=60' or 'regions=eu:us:ap,routing="
             "latency-aware,weights=2:1:1' (routing: home-region, "
             "weighted, latency-aware, spillover)")
    sweep_p.add_argument(
        "--streaming", action="store_true",
        help="serve every cell through bounded-memory streaming "
             "estimators (P2 percentiles) instead of retained outcome "
             "arrays — for very large --requests (analytic cells only)")
    sweep_p.add_argument("--csv", default=None, help="write per-cell CSV here")
    sweep_p.add_argument("--json", default=None,
                         help="write the full JSON report here")

    serve_p = sub.add_parser(
        "serve",
        help="run the always-on serving loop: live sizing, streaming "
             "metrics, online adaptation",
    )
    serve_p.add_argument(
        "--source", default="diurnal@8",
        help="arrival source token as for sweep --arrivals "
             "(default: diurnal@8)")
    serve_p.add_argument("--workflow", default="IA",
                         help="scenario workflow to serve (default: IA)")
    serve_p.add_argument("--policy", default="Janus",
                         help="sizing policy (default: Janus)")
    serve_p.add_argument("--max-requests", type=int, default=None,
                         dest="max_requests",
                         help="stop after ingesting N requests")
    serve_p.add_argument("--max-seconds", type=float, default=None,
                         dest="max_seconds",
                         help="stop after S wall-clock seconds")
    serve_p.add_argument(
        "--time-scale", type=float, default=0.0, dest="time_scale",
        help="wall-clock pacing: 0 = unpaced (as fast as possible, the "
             "default), 1 = real time, 60 = a trace-minute per second")
    serve_p.add_argument(
        "--metrics-every", type=int, default=500, dest="metrics_every",
        help="emit a metrics snapshot event every N completions "
             "(default 500)")
    serve_p.add_argument("--snapshot-out", default=None, dest="snapshot_out",
                         help="write the final metrics snapshot JSON here")
    serve_p.add_argument("--event-log", default=None, dest="event_log",
                         help="append JSONL events (arrivals, decisions, "
                              "swaps, snapshots) here")
    serve_p.add_argument("--seed", type=int, default=0)
    serve_p.add_argument("--samples", type=int, default=2000,
                         help="profiling samples per grid point")
    serve_p.add_argument("--slo-scale", type=float, default=1.0,
                         dest="slo_scale",
                         help="multiplier on the workflow's default SLO")
    serve_p.add_argument(
        "--no-adapt", action="store_true",
        help="disable online adaptation (observe misses, never "
             "re-synthesize)")
    serve_p.add_argument(
        "--miss-threshold", type=float, default=0.01, dest="miss_threshold",
        help="windowed hint-miss rate that triggers re-synthesis "
             "(default 0.01)")
    serve_p.add_argument(
        "--miss-window", type=int, default=200, dest="miss_window",
        help="sliding window length for the miss rate (default 200)")
    serve_p.add_argument(
        "--faults", default=None,
        help="arrival-side fault injection: 'storm@MULTIPLIER"
             "[:WINDOW_FRACTION]' superimposes a flash crowd on --source; "
             "'region-failover[@OUTAGE_MS]' darkens one region (needs "
             "--fleet). Cluster-side kinds need 'sweep --executor "
             "cluster'")
    serve_p.add_argument(
        "--fleet", default=None,
        help="serve a multi-region fleet: same spec grammar as sweep "
             "--fleet; per-region phase-offset sources merge into one "
             "routed stream with fleet counters in every snapshot")
    serve_p.add_argument(
        "--drift", default=None,
        help="force workload drift for adaptation demos: comma-separated "
             "AFTER:SCALE pairs, e.g. '500:4.0' multiplies working sets "
             "by 4 from request 500 on")

    trace_p = sub.add_parser(
        "trace", help="generate, summarize or replay workload trace files"
    )
    trace_sub = trace_p.add_subparsers(dest="trace_command", required=True)
    gen_p = trace_sub.add_parser(
        "generate",
        help="synthesise a trace: one arrival process, Zipf workflow "
             "popularity",
    )
    gen_p.add_argument("--out", required=True,
                       help="output path (.csv for CSV, JSONL otherwise)")
    gen_p.add_argument("--workflows", default="IA,VA",
                       help="comma-separated workflow names in popularity "
                            "rank order (default: IA,VA)")
    gen_p.add_argument("--n", type=int, default=1000, dest="n_records",
                       help="number of invocation records (default 1000)")
    gen_p.add_argument("--arrival", default="diurnal@8",
                       help="arrival token as for sweep --arrivals "
                            "(default: diurnal@8)")
    gen_p.add_argument("--amplitude", type=float, default=None,
                       help="diurnal relative swing in [0, 1] "
                            "(diurnal arrivals only)")
    gen_p.add_argument("--period-s", type=float, default=None,
                       dest="period_s",
                       help="diurnal cycle length in seconds "
                            "(diurnal arrivals only)")
    gen_p.add_argument("--zipf", type=float, default=0.9,
                       help="Zipf popularity exponent over the workflows "
                            "(default 0.9)")
    gen_p.add_argument("--seed", type=int, default=2025)
    gen_p.add_argument("--name", default=None,
                       help="trace name stored in the header "
                            "(default: output basename)")

    sum_p = trace_sub.add_parser(
        "summarize", help="print a trace file's header and workload shape"
    )
    sum_p.add_argument("trace", help="trace file from 'trace generate'")

    rep_p = trace_sub.add_parser(
        "replay",
        help="replay a trace into an arrival stream and summarise it",
    )
    rep_p.add_argument("trace", help="trace file to replay")
    rep_p.add_argument("--workflow", default=None,
                       help="replay this workflow's sub-stream through "
                            "full request generation (default: the raw "
                            "arrival stream)")
    rep_p.add_argument("--requests", type=int, default=None,
                       help="stream length (default: every matching "
                            "record; longer wraps around)")

    prof_p = sub.add_parser(
        "profile", help="profile a catalog workflow to a JSON file"
    )
    prof_p.add_argument("workflow", choices=["IA", "VA"])
    prof_p.add_argument("--out", required=True, help="output JSON path")
    prof_p.add_argument("--samples", type=int, default=2000)
    prof_p.add_argument("--seed", type=int, default=2025)
    prof_p.add_argument("--concurrency", type=int, default=1,
                        help="profile batch sizes 1..N (IA only)")

    synth_p = sub.add_parser(
        "synthesize", help="synthesize hint tables from saved profiles"
    )
    synth_p.add_argument("profiles", help="profile JSON from 'profile'")
    synth_p.add_argument("--out", required=True, help="output hints JSON path")
    synth_p.add_argument("--chain", default=None,
                         help="comma-separated function order "
                              "(default: profile order)")
    synth_p.add_argument("--tmin", type=int, default=None)
    synth_p.add_argument("--tmax", type=int, default=None)
    synth_p.add_argument("--weight", type=float, default=1.0)
    synth_p.add_argument("--concurrency", type=int, default=1)
    synth_p.add_argument(
        "--exploration", choices=["none", "head", "head+next"], default="head"
    )

    insp_p = sub.add_parser("inspect", help="summarise a hints JSON file")
    insp_p.add_argument("hints", help="hints JSON from 'synthesize'")
    return parser


def _params_for(exp_id: str, args: argparse.Namespace) -> dict[str, _t.Any]:
    run = EXPERIMENTS[exp_id].run
    params: dict[str, _t.Any] = {}
    for knob, param in _KNOB_PARAMS.items():
        value = getattr(args, knob, None)
        if value is not None and _accepts(run, param):
            params[param] = value
    return params


def main(argv: _t.Sequence[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "synthesize" and (args.tmin is None) != (args.tmax is None):
        missing = "--tmax" if args.tmax is None else "--tmin"
        parser.error(f"synthesize needs {missing} too: a budget takes both bounds")
    try:
        return _run(args)
    except ReproError as exc:
        print(f"janus-repro: error: {exc}", file=sys.stderr)
        return 1


def _run(args: argparse.Namespace) -> int:
    if args.command == "list":
        for exp_id, desc in list_experiments():
            print(f"{exp_id:20s} {desc}")
        return 0
    if args.command == "run":
        t0 = time.perf_counter()
        print(run_experiment(args.experiment, **_params_for(args.experiment, args)))
        print(f"\n[{args.experiment} took {time.perf_counter() - t0:.1f} s]")
        return 0
    if args.command == "run-all":
        for exp_id in EXPERIMENTS:
            t0 = time.perf_counter()
            print("=" * 72)
            print(run_experiment(exp_id, **_params_for(exp_id, args)))
            print(f"\n[{exp_id} took {time.perf_counter() - t0:.1f} s]")
        return 0
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "synthesize":
        return _cmd_synthesize(args)
    if args.command == "inspect":
        return _cmd_inspect(args)
    return 2  # pragma: no cover - argparse enforces choices


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .scenarios import (
        ScenarioMatrix,
        SweepRunner,
        parse_arrival,
        parse_cluster_config,
        parse_fault,
        parse_fleet,
    )

    backend_options: dict[str, _t.Any] = {}
    if args.backend == "distributed":
        backend_options["hosts"] = args.hosts or "local:2"
        if args.auth_token:
            backend_options["auth_token"] = args.auth_token
    elif args.hosts or args.auth_token:
        flag = "--hosts" if args.hosts else "--auth-token"
        raise ExperimentError(f"{flag} requires --backend distributed")

    def _split(text: str) -> list[str]:
        return [part.strip() for part in text.split(",") if part.strip()]

    def _numbers(flag: str, text: str, kind: type, noun: str) -> tuple:
        # Only parses the tokens; the matrix schema checks their domain.
        values = []
        for token in _split(text):
            try:
                values.append(kind(token))
            except ValueError:
                raise ExperimentError(
                    f"{flag} wants comma-separated {noun}, got {token!r}"
                ) from None
        return tuple(values)

    matrix_kwargs: dict[str, _t.Any] = {
        "workflows": tuple(_split(args.workflows)),
        "arrivals": tuple(parse_arrival(tok) for tok in _split(args.arrivals)),
        "slo_scales": _numbers(
            "--slo-scales", args.slo_scales, float, "numbers"
        ),
        "tenant_counts": _numbers("--tenants", args.tenants, int, "integers"),
        "baseline": args.baseline,
    }
    if args.policies:
        matrix_kwargs["policies"] = tuple(_split(args.policies))
    if args.executor:
        matrix_kwargs["executors"] = tuple(
            None if name == "auto" else name
            for name in _split(args.executor)
        )
    if args.cluster_config is not None:
        matrix_kwargs["cluster"] = parse_cluster_config(args.cluster_config)
    if args.traces:
        matrix_kwargs["traces"] = tuple(_split(args.traces))
    if args.faults:
        matrix_kwargs["faults"] = tuple(
            None if token == "none" else parse_fault(token)
            for token in _split(args.faults)
        )
    if args.streaming:
        matrix_kwargs["streaming"] = True
    if args.fleet:
        matrix_kwargs["fleets"] = (parse_fleet(args.fleet),)
    # Same knob-introspection contract as `run`: a scale flag reaches the
    # matrix only if its constructor takes the parameter.
    for knob, param in _KNOB_PARAMS.items():
        value = getattr(args, knob, None)
        if value is not None and _accepts(ScenarioMatrix.__init__, param):
            matrix_kwargs[param] = value
    matrix = ScenarioMatrix(**matrix_kwargs)
    print(f"sweeping {len(matrix)} scenario cells "
          f"({len(matrix.policies)} policies each)...")
    runner = SweepRunner(
        max_workers=args.jobs,
        backend=args.backend,
        cache_dir=None if args.no_cache else args.cache_dir,
        progress=print if args.progress else None,
        backend_options=backend_options or None,
    )
    report = runner.run(matrix)
    print(report.render())
    if args.csv:
        report.write_csv(args.csv)
        print(f"per-cell CSV -> {args.csv}")
    if args.json:
        report.write_json(args.json)
        print(f"JSON report -> {args.json}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .scenarios.matrix import parse_arrival, parse_fault, parse_fleet
    from .serving import ServingConfig, run_service

    schedule: tuple[tuple[int, float], ...] = ()
    if args.drift:
        pairs = []
        for token in args.drift.split(","):
            token = token.strip()
            if not token:
                continue
            after_s, _, scale_s = token.partition(":")
            try:
                pairs.append((int(after_s), float(scale_s)))
            except ValueError:
                raise SystemExit(
                    f"--drift wants AFTER:SCALE pairs, got {token!r}"
                ) from None
        schedule = tuple(pairs)
    config = ServingConfig(
        workflow=args.workflow,
        policy=args.policy,
        source=parse_arrival(args.source),
        seed=args.seed,
        samples=args.samples,
        slo_scale=args.slo_scale,
        max_requests=args.max_requests,
        max_seconds=args.max_seconds,
        time_scale=args.time_scale,
        metrics_every=args.metrics_every,
        miss_threshold=args.miss_threshold,
        miss_window=args.miss_window,
        adapt=not args.no_adapt,
        workset_schedule=schedule,
        event_log=args.event_log,
        faults=parse_fault(args.faults) if args.faults else None,
        fleet=parse_fleet(args.fleet) if args.fleet else None,
    )
    fleet_note = (
        f", fleet {config.fleet.label}" if config.fleet is not None else ""
    )
    print(
        f"serving {config.workflow} under {config.policy} "
        f"({config.source.label}, seed {config.seed}{fleet_note})..."
    )
    report = run_service(config)
    snap = report.snapshot
    rate = report.completed / report.wall_seconds if report.wall_seconds else 0
    print(
        f"served {report.completed}/{report.arrivals} requests "
        f"({report.dropped} dropped) in {report.wall_seconds:.2f} s "
        f"(~{rate:.0f} req/s), {report.swaps} hint swap(s)"
    )
    print(
        f"  latency  P50 {snap['p50']:.1f} ms   "
        f"P95 {snap['p95']:.1f} ms   P99 {snap['p99']:.1f} ms"
    )
    print(
        f"  SLO      {snap['slo_attainment']:.1%} attained "
        f"(windowed {snap['slo_attainment_windowed']:.1%})"
    )
    print(
        f"  cost     {snap['mean_allocated_millicores']:.0f} mc/request "
        f"(total {snap['total_millicore_cost']:.0f})   "
        f"miss rate {snap['miss_rate']:.3f}"
    )
    if config.fleet is not None and "fleet_remote_fraction" in snap:
        print(
            f"  fleet    {snap['fleet_spillovers']:.0f} spillover(s), "
            f"{snap['fleet_failovers']:.0f} failover(s), "
            f"{snap['fleet_remote_fraction']:.1%} served remotely "
            f"(+{snap['fleet_rtt_penalty_ms']:.1f} ms mean RTT)"
        )
    if args.snapshot_out:
        with open(args.snapshot_out, "w", encoding="utf-8") as fh:
            json.dump(snap, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"snapshot JSON -> {args.snapshot_out}")
    if args.event_log:
        print(f"event log -> {args.event_log}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.trace_command == "generate":
        return _cmd_trace_generate(args)
    if args.trace_command == "summarize":
        return _cmd_trace_summarize(args)
    return _cmd_trace_replay(args)


def _cmd_trace_generate(args: argparse.Namespace) -> int:
    import dataclasses

    from .scenarios.matrix import parse_arrival
    from .traces.trace_file import generate_workload_trace, save_trace

    arrival = parse_arrival(args.arrival)
    overrides = {
        knob: value
        for knob, value in (
            ("amplitude", args.amplitude), ("period_s", args.period_s)
        )
        if value is not None
    }
    if overrides:
        if arrival.kind != "diurnal":
            raise SystemExit(
                f"--amplitude/--period-s shape diurnal arrivals only "
                f"(got --arrival {args.arrival!r})"
            )
        arrival = dataclasses.replace(arrival, **overrides)
    workflows = [w.strip() for w in args.workflows.split(",") if w.strip()]
    name = args.name or os.path.splitext(os.path.basename(args.out))[0]
    trace = generate_workload_trace(
        workflows, args.n_records, arrival=arrival, zipf_s=args.zipf,
        seed=args.seed, name=name,
    )
    digest = save_trace(trace, args.out)
    shares = ", ".join(
        f"{wf} {count}" for wf, count in trace.counts_by_workflow().items()
    )
    print(
        f"generated {trace.n_records} records over {trace.span_ms / 1000:.1f} s "
        f"({arrival.label}; {shares}) -> {args.out}"
    )
    print(f"content digest: {digest}")
    return 0


def _cmd_trace_summarize(args: argparse.Namespace) -> int:
    from .traces.trace_file import load_trace

    trace = load_trace(args.trace)
    span_s = trace.span_ms / 1000.0
    rate = trace.n_records / span_s if span_s > 0 else float("inf")
    print(f"trace:     {trace.name} ({args.trace})")
    print(f"records:   {trace.n_records} over {span_s:.1f} s "
          f"(~{rate:.1f} req/s)")
    print(f"digest:    {trace.digest()}")
    if trace.workflows:
        counts = trace.counts_by_workflow()
        for wf in trace.workflows:
            share = counts[wf] / trace.n_records
            print(f"  {wf:12s} {counts[wf]:8d} records ({share:.1%})")
    else:
        print("  (no per-record workflow attribution)")
    if trace.durations_ms is not None:
        import numpy as np

        p50, p99 = np.percentile(trace.durations_ms, [50, 99])
        print(f"durations: P50 {p50:.1f} ms, P99 {p99:.1f} ms")
    if trace.metadata:
        print(f"metadata:  {json.dumps(trace.metadata, sort_keys=True)}")
    return 0


def _cmd_trace_replay(args: argparse.Namespace) -> int:
    from .traces.trace_file import load_trace, replay_arrivals

    trace = load_trace(args.trace)
    if args.workflow is not None:
        # Full request generation for a catalog workflow: exactly what a
        # sweep cell replaying this trace would serve.
        from .scenarios.registry import scenario_workflow
        from .traces.workload import ArrivalSpec, WorkloadConfig
        from .traces.workload import generate_requests

        workflow = scenario_workflow(args.workflow)
        n = args.requests or trace.arrivals_for(args.workflow).size
        requests = generate_requests(
            workflow,
            WorkloadConfig(
                n_requests=int(n),
                arrival=ArrivalSpec(kind="replay", trace=args.trace),
            ),
        )
        span_s = (requests[-1].arrival_ms - requests[0].arrival_ms) / 1000.0
        rate = len(requests) / span_s if span_s > 0 else float("inf")
        print(
            f"replayed {len(requests)} {workflow.name} requests over "
            f"{span_s:.1f} s (~{rate:.1f} req/s), SLO {requests[0].slo_ms:g} ms"
        )
    else:
        arrivals = replay_arrivals(trace, args.requests or trace.n_records)
        span_s = float(arrivals[-1] - arrivals[0]) / 1000.0
        rate = arrivals.size / span_s if span_s > 0 else float("inf")
        print(
            f"replayed {arrivals.size} arrivals over {span_s:.1f} s "
            f"(~{rate:.1f} req/s)"
        )
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from .profiling.io import save_profile_set
    from .profiling.profiler import profile_workflow
    from .workflow.catalog import intelligent_assistant, video_analytics

    if args.workflow == "IA":
        wf = intelligent_assistant(concurrency=args.concurrency)
    else:
        wf = video_analytics()
    profiles = profile_workflow(
        wf, seed=args.seed, samples=args.samples,
        concurrencies=tuple(range(1, args.concurrency + 1)),
    )
    save_profile_set(profiles, args.out)
    print(f"profiled {wf.name} ({', '.join(profiles.functions())}) "
          f"-> {args.out}")
    return 0


def _cmd_synthesize(args: argparse.Namespace) -> int:
    from .profiling.io import load_profile_set
    from .synthesis.budget import BudgetRange
    from .synthesis.generator import HeadExploration, synthesize_hints

    profiles = load_profile_set(args.profiles)
    chain = (
        [c.strip() for c in args.chain.split(",")]
        if args.chain
        else profiles.functions()
    )
    budget = None
    if args.tmin is not None:
        budget = BudgetRange(args.tmin, args.tmax)
    exploration = {
        "none": HeadExploration.NONE,
        "head": HeadExploration.HEAD_ONLY,
        "head+next": HeadExploration.HEAD_PLUS_NEXT,
    }[args.exploration]
    hints = synthesize_hints(
        profiles, chain, budget=budget, concurrency=args.concurrency,
        weight=args.weight, exploration=exploration,
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(hints.to_json())
    print(
        f"synthesized {hints.condensed_hint_count} rows "
        f"({hints.compression_ratio:.1%} compressed) "
        f"in {hints.synthesis_seconds:.2f} s -> {args.out}"
    )
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from .synthesis.hints import WorkflowHints

    with open(args.hints, "r", encoding="utf-8") as fh:
        hints = WorkflowHints.from_json(fh.read())
    print(f"workflow:    {hints.workflow_name}")
    print(f"concurrency: {hints.concurrency}   weight: {hints.weight:g}")
    print(f"rows:        {hints.condensed_hint_count} "
          f"(raw {hints.raw_hint_count}, "
          f"{hints.compression_ratio:.1%} compressed)")
    print(f"memory:      {hints.memory_bytes() / 1024:.1f} KiB")
    for table in hints.tables:
        print(
            f"  stage {table.suffix_index} ({table.head_function}): "
            f"{len(table)} rows covering "
            f"[{table.tmin_ms}, {table.tmax_ms}] ms"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
