"""Fail CI when a hot-path throughput headline regresses past tolerance.

Usage::

    python benchmarks/check_regression.py BASELINE.json CURRENT.json

Compares the higher-is-better throughput keys of the guarded sections
(the DES kernel, the batched analytic executor, the congested cluster
cell and more, see ``GUARDED``) and exits non-zero when any current number falls
more than ``JANUS_BENCH_TOLERANCE`` (default 25%) below the committed
baseline. Wall-time sections (sweeps, caches) are deliberately not
guarded: they track runner hardware more than code, and the bit-identity
asserts inside the bench suite already cover their correctness.
"""

from __future__ import annotations

import json
import os
import sys

#: section -> higher-is-better keys guarded against regression.
GUARDED: dict[str, tuple[str, ...]] = {
    "sim_engine": ("timeout_loop_events_per_s", "fanout_events_per_s"),
    "analytic": (
        "grandslam_requests_per_s",
        "janus_requests_per_s",
        "batch_speedup",
    ),
    # Sleep-cell fabric speedup: machine-independent by construction (the
    # cells overlap regardless of core count), so it guards the scheduler
    # itself — real-cell distributed walls stay unguarded like the other
    # wall-time sections.
    "distributed": ("two_worker_speedup",),
    # remote_fraction is deterministic for the committed seed on the
    # fixed-size fleet bench matrix, so any movement is a routing
    # behaviour change, not noise; the router rate guards the per-arrival
    # hot path shared by the batch evaluator and the serving loop.
    "fleet": ("routed_requests_per_s", "remote_fraction"),
    # The fixed-size congested DES cluster cell (pending pods waiting for
    # capacity): an end-to-end cell rate, not a component one.
    "cluster": ("congested_requests_per_s",),
    # The batched Optimal oracle on a fixed IA+VA stream (400 requests
    # each): its solve dominates a default sweep. The one-row rate stays
    # unguarded, and no ratio is guarded.
    "oracle": ("batched_requests_per_s",),
    # ORION's live policy build on fixed IA and VA profiles (4 builds from
    # a cleared plan memo): a sweep pays it once per distinct plan.
    "orion": ("builds_per_s",),
    # A fixed 2-tenant IA cell with 10k requests per tenant, end to end
    # (generation, tenant merge, two batched policy runs): the long-stream
    # path. The per-workflow generation rates stay unguarded.
    "requests": ("cell_policy_requests_per_s",),
}


def check(baseline: dict, current: dict, tolerance: float) -> list[str]:
    failures: list[str] = []
    for section, keys in GUARDED.items():
        base_sec = baseline.get(section)
        cur_sec = current.get(section)
        if base_sec is None:
            continue  # section not in the committed baseline yet
        if cur_sec is None:
            failures.append(f"{section}: missing from current results")
            continue
        for key in keys:
            base = base_sec.get(key)
            cur = cur_sec.get(key)
            if base is None:
                continue
            if cur is None:
                failures.append(f"{section}.{key}: missing from current results")
                continue
            floor = base * (1.0 - tolerance)
            if cur < floor:
                failures.append(
                    f"{section}.{key}: {cur:,.0f} < {floor:,.0f} "
                    f"({tolerance:.0%} below baseline {base:,.0f})"
                )
    return failures


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__)
        return 2
    with open(argv[1], encoding="utf-8") as fh:
        baseline = json.load(fh)
    with open(argv[2], encoding="utf-8") as fh:
        current = json.load(fh)
    tolerance = float(os.environ.get("JANUS_BENCH_TOLERANCE", "0.25"))
    failures = check(baseline, current, tolerance)
    if failures:
        print("benchmark regression guard FAILED:")
        for line in failures:
            print(f"  {line}")
        return 1
    print(f"benchmark regression guard OK (tolerance {tolerance:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
