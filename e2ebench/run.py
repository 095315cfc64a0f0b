#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 e2ebench/run.py --workload sweep-default --seed 1 --seconds 20 --trace 0

The run imports ``repro`` from ``src/``, sets the workload up several
times from cold memos (``setup_s`` is the import time plus the fastest
set-up), then runs measured passes until ``--seconds`` have elapsed,
checking every output. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. A traced run also writes its spans as Chrome trace-event
JSON under ``.bench_out/`` and prints a per-layer self-time table.

Everything runs in this one process on the serial sweep backend.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Cold set-ups per run; ``setup_s`` reports the fastest.
SETUP_REPEATS = 3
#: Measured passes per untraced run at least, so each segment's fastest
#: time is taken over several repeats.
MIN_PASSES = 3

WORKLOAD_NAMES = ("sweep-default", "sweep-large", "cluster-knee", "serve-drift")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="input sizes: 'tiny' is for the benchmark's own smoke tests",
    )
    return parser.parse_args(argv)


def _source_digest() -> str:
    """SHA-256 over the package sources (the checkout may not be a git
    repository, so this names the code that was measured)."""
    import hashlib

    h = hashlib.sha256()
    package = os.path.join(SRC, "repro")
    for dirpath, dirnames, filenames in os.walk(package):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, package).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def _provenance(args: argparse.Namespace) -> dict[str, object]:
    import networkx
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def _measure(workload, timer, seconds: float, min_passes: int) -> list:
    """Measured passes until ``seconds`` have elapsed.

    Another pass starts only while at least half of one (median) pass
    still fits, so a run ends within half a pass of ``seconds`` — unless
    fewer than ``min_passes`` have run.
    """
    outcomes = []
    start = time.perf_counter()
    while len(outcomes) < min_passes or (
        time.perf_counter() - start
        + 0.5 * statistics.median(o.wall_s for o in outcomes)
        <= seconds
    ):
        outcomes.append(workload.run_pass(timer))
    return outcomes


def _rate(outcomes: list) -> float:
    """Requests per second of the fastest pass the segments allow.

    Each segment (a sweep cell, the report tail, a whole serve) takes its
    fastest time over the passes: interference on a shared host only ever
    slows code down, so the fastest repeat is the steadiest estimate of
    the code's own speed. Passes whose segments do not line up (a failed
    matrix) fall back to the fastest pass wall.
    """
    if len({len(o.segments) for o in outcomes}) == 1:
        wall = sum(min(column) for column in zip(*(o.segments for o in outcomes)))
    else:
        wall = min(o.wall_s for o in outcomes)
    requests = statistics.median(o.requests for o in outcomes)
    return requests / wall if wall > 0 else 0.0


def _result(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    })


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"e2ebench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    started = time.perf_counter()
    import repro  # noqa: F401  (timed: part of set-up)

    import workloads
    import_s = time.perf_counter() - started

    import layers
    from tracing import Patcher, Stopwatch, Tracer

    traced = args.trace == 1
    tracer = Tracer() if traced else None
    patcher = Patcher(tracer, layers.PROBES) if traced else None
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    work_root = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_work"))
    try:
        workload = workloads.build(
            args.workload, args.seed, args.size == "tiny", work_root
        )
        if traced:
            tracer.gauges.extend(layers.gauges())
            patcher.install()
        timer = tracer if traced else Stopwatch()
        setup_walls = []
        for _ in range(SETUP_REPEATS):
            with timer.phase("setup") as timed:
                workload.setup()
            setup_walls.append(timed.wall_s)
        if traced:
            # One untraced pass gives the tracing overhead on the same inputs.
            patcher.uninstall()
            plain = workload.run_pass(Stopwatch())
            patcher.install()
            outcomes = _measure(
                workload, timer, args.seconds - plain.wall_s, min_passes=1
            )
            everything = [plain] + outcomes
        else:
            outcomes = _measure(
                workload, timer, args.seconds, min_passes=MIN_PASSES
            )
            everything = outcomes
        if traced:
            patcher.uninstall()
        sizing = workload.sizing()
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    attempted = sum(o.attempted for o in everything)
    failed = sum(o.failed for o in everything)
    deterministic = len({o.digest for o in everything}) == 1
    correct = failed == 0 and deterministic
    print(f"report_digest {everything[0].digest}")
    print("provenance " + json.dumps(_provenance(args), sort_keys=True))

    if not traced:
        replays = [w for o in outcomes for w in o.replay_walls]
        metrics = {
            "setup_s": (import_s + min(setup_walls), "s"),
            "requests_per_s": (_rate(outcomes), "1/s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
            ),
            "success_pct": (100.0 * (1.0 - failed / attempted), "%"),
            "replay_s": (min(replays), "s"),
            "janus_cost_pct": (sizing.janus_cost_pct, "%"),
            "janus_slo_pct": (sizing.janus_slo_pct, "%"),
        }
        print(
            f"passes {len(outcomes)} "
            f"({', '.join(f'{o.wall_s:.3f}' for o in outcomes)} s), "
            f"set-ups {len(setup_walls)} "
            f"({', '.join(f'{w:.3f}' for w in setup_walls)} s), "
            f"import {import_s:.3f} s, replays {len(replays)}"
        )
        print(_result(correct, attempted, failed, {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        }))
        return 0

    missing = layers.missing_probes(tracer, args.workload)
    if missing:
        print(
            f"e2ebench: probes never fired on {args.workload}: "
            f"{', '.join(missing)} — a traced entry point was renamed or "
            f"bypassed, so its per-layer metrics would read 0",
            file=sys.stderr,
        )
        return 3
    plain_rate = _rate([plain])
    overhead = 100.0 * (1.0 - _rate(outcomes) / plain_rate) if plain_rate else 0.0
    coverage = layers.coverage_pct(tracer)
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    trace_path = os.path.join(
        out_dir, f"trace-{args.workload}-seed{args.seed}.json"
    )
    tracer.write_chrome_trace(trace_path, _provenance(args))
    print(layers.layer_table(tracer, "setup"))
    print(layers.layer_table(tracer, "pass"))
    print(f"traced passes cover {coverage:.1f}% of their wall in layers; "
          f"tracing overhead {overhead:.1f}%; spans -> {trace_path}")
    print(_result(correct, attempted, failed, {
        name: {"value": value, "unit": layers.unit_of(name)}
        for name, value in layers.layer_metrics(
            tracer, import_s, overhead, coverage
        ).items()
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
