"""Golden serving runs: snapshot and event-log digests, pinned.

Each case serves a small in-process run and hashes its final metrics
snapshot and its JSONL event log (without the ``stop`` event's
``wall_seconds``, the one wall-clock field). Arrivals, the dynamics draw,
routing, adaptation and the log format all feed the digests, so a change
that moves any serving output by one bit fails here. Deliberately
brittle, like ``test_golden_shapes.py``: if a change is meant to alter
serving results, regenerate the digests with :func:`digests` and justify
the diff.
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.scenarios.matrix import parse_arrival, parse_fault, parse_fleet
from repro.serving import ServingConfig, run_service
from repro.traces.trace_file import generate_workload_trace, save_trace

#: The replay case's trace, written next to the event log under this name
#: so the spec label (``replay@day.jsonl``) does not depend on the path.
TRACE_NAME = "day.jsonl"

CASES: dict[str, dict] = {
    "diurnal-drift": dict(
        source="diurnal@8", max_requests=600, samples=300,
        metrics_every=200, workset_schedule=((300, 3.0),),
    ),
    "poisson-drift": dict(
        source="poisson@50", max_requests=700, samples=400,
        workset_schedule=((300, 4.0),), miss_threshold=0.05,
    ),
    "storm": dict(
        source="diurnal@20", max_requests=300, samples=300, faults="storm@6",
    ),
    "fleet-failover": dict(
        source="diurnal@40", max_requests=300, samples=300,
        fleet="regions=3,routing=spillover,capacity=4",
        faults="region-failover@2000",
    ),
    "replay": dict(
        source=f"replay@{TRACE_NAME}", max_requests=400, samples=300,
        workset_schedule=((250, 2.0),),
    ),
}

#: ``(snapshot sha256, event-log sha256)`` per case, generated before the
#: serving loop drew dynamics a chunk at a time (the per-request draw).
GOLDEN: dict[str, tuple[str, str]] = {
    "diurnal-drift": (
        "728e858fcec717bfc1269289fe4a5fa3e6fdc011e159f1ebe4e38c1949705fc2",
        "ebc0350973beb44fc642a7e91be8622e488562e95c422282c3f3effb53dc4889",
    ),
    "poisson-drift": (
        "e6112c2e349f63b56652821bc6eec7c098994037abe0044c41fd88f37f4f6c23",
        "06303673ca208297aa704f96e9783f275b70e85c29edccb099c175631f13644b",
    ),
    "storm": (
        "c507aab02117933aeee62d1026e23e0ac559a940df6a1aec44fec56c09303ff7",
        "0e51281dcc4d26d6e36839cd4f02ea5baa28d0cf81016a02754661af19030d07",
    ),
    "fleet-failover": (
        "a3ae3b466482907cda3872e3359022a7c9e2690bd490e8c4742612f5bc64337a",
        "dc319b84ff71416efba61eb3d6ec5c960765ec7932429cfb391cb30fb9d5bf20",
    ),
    "replay": (
        "8df2226bcf29e5d731420bf18c26edc18f46dd78ef08dcdd4e59bb68e42454e5",
        "feb6fa8287524fc4b832074ec365d58b3dbe649f29e3a9346ea21829188f7a3d",
    ),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def serve(name: str, workdir: str) -> tuple[str, str]:
    """Run case ``name`` inside ``workdir``; its two digests."""
    knobs = dict(CASES[name])
    knobs["source"] = parse_arrival(knobs["source"])
    if "faults" in knobs:
        knobs["faults"] = parse_fault(knobs["faults"])
    if "fleet" in knobs:
        knobs["fleet"] = parse_fleet(knobs["fleet"])
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        save_trace(generate_workload_trace(["IA", "VA"], 300, seed=7), TRACE_NAME)
        report = run_service(ServingConfig(event_log="events.jsonl", **knobs))
        lines = []
        with open("events.jsonl", encoding="utf-8") as fh:
            for line in fh:
                event = json.loads(line)
                event.pop("wall_seconds", None)
                lines.append(json.dumps(event))
    finally:
        os.chdir(cwd)
    return (
        _sha256(json.dumps(report.snapshot, sort_keys=True)),
        _sha256("\n".join(lines)),
    )


def digests(workdir: str) -> dict[str, tuple[str, str]]:
    """Every case's digests (what :data:`GOLDEN` pins)."""
    out = {}
    for name in CASES:
        path = os.path.join(workdir, name)
        os.makedirs(path, exist_ok=True)
        out[name] = serve(name, path)
    return out


@pytest.mark.parametrize("name", list(CASES))
def test_serving_output_is_pinned(name, tmp_path):
    assert serve(name, str(tmp_path)) == GOLDEN[name]
