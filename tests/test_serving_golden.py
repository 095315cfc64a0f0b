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

#: ``(snapshot sha256, event-log sha256)`` per case, regenerated when each
#: stage's worksets and noise moved to streams of their own (1.4.0).
GOLDEN: dict[str, tuple[str, str]] = {
    "diurnal-drift": (
        "dd8852865c2b20dd9628ee46544732d5fc2a9bb1ee1f930ce130b897eeaedf70",
        "524287d8bb49aa9068e22e2d8b7bd2dd7880a4b988da379a3499c3f106636a39",
    ),
    "poisson-drift": (
        "a86f911f586a490546f8b34a673f639152603e9568f150e0d81d94b50b3f7935",
        "ee9d38abeea257de82ccaaa0141832ab81dcd962d4c52ab5a3f9023facccb155",
    ),
    "storm": (
        "b08355713add519b9250bd2f0080ab221740a7775809447ff11eaa8e6c72faa3",
        "6d0b6ed7d9e798a7b8c1bd4bdecfaa5cdbef3ca42087db5ee87e837299536e57",
    ),
    "fleet-failover": (
        "79dc3bd698c01522bdc9b59c0681eb4b3661b3defa82b76343a39f67e6ce657f",
        "a7ade72d57c415594d98251ba0e6062d4fc860142568fde0e35b6ddf28ffb483",
    ),
    "replay": (
        "a9a987ae31b4c94fabd59eb8cf5504405c07fb70bafa7ca011321ef010c021f3",
        "c7ea930a16039d13ac717be9ae6310dd2b0fb0ba10b45e67b668b314f01a512f",
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
