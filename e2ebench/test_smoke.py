"""Smoke tests of the benchmark itself, at tiny input sizes.

Run from the repository root::

    python3 -m pytest e2ebench -q
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import subprocess
import sys

import pytest

from tracing import BENCH, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep-default", "sweep-large", "cluster-knee", "serve-drift")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@functools.lru_cache(maxsize=None)
def _run(workload: str, trace: int) -> tuple[str, ...]:
    proc = subprocess.run(
        [sys.executable, os.path.join("e2ebench", "run.py"),
         "--workload", workload, "--seed", "5", "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return tuple(proc.stdout.strip().splitlines())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_every_metric_with_its_unit(workload: str, trace: int) -> None:
    result = json.loads(_run(workload, trace)[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = _spec()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"], metric["name"]
        assert isinstance(printed["value"], (int, float)), metric["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_does_not_perturb_outputs(workload: str) -> None:
    def digest(lines: tuple[str, ...]) -> str:
        return next(l for l in lines if l.startswith("report_digest "))

    assert digest(_run(workload, 0)) == digest(_run(workload, 1))


def test_traced_run_exports_chrome_trace() -> None:
    lines = _run("serve-drift", 1)
    path = lines[-2].rsplit("spans -> ", 1)[1]
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
    assert {"serving.run", "synthesis.synthesize_hints"} <= names
    assert doc["otherData"]["workload"] == "serve-drift"


def test_fails_without_the_program(tmp_path) -> None:
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, os.path.join("e2ebench", "run.py"),
         "--workload", "serve-drift", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_excludes_nested_frames() -> None:
    ticks = iter([0.0, 1.0, 2.0, 5.0, 6.0, 10.0, 10.0])
    tracer = Tracer()
    tracer.clock = lambda: next(ticks)
    tracer.layer_of.update({"outer": "a", "inner": "b"})
    with tracer.phase("pass"):                       # 0 .. 10
        outer = tracer.enter("outer", True)          # 1
        inner = tracer.enter("inner", False)         # 2
        tracer.exit(inner)                           # 5
        tracer.exit(outer)                           # 6
    ledger = tracer.ledgers["pass"]
    assert ledger.self_s["inner"] == 3.0
    assert ledger.self_s["outer"] == 2.0
    assert ledger.self_s[BENCH] == 5.0
    assert ledger.wall_s == 10.0
