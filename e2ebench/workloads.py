"""The four benchmark workloads: what each sets up, runs and checks.

A workload offers three steps, timed through a ``timer`` whose
``phase(kind)`` context yields an object with ``wall_s`` on exit (a
plain stopwatch, or the tracer's phase that also books spans):

* ``setup()`` — profiling, hint synthesis and policy build, from cold
  memos; the benchmark repeats it and reports the fastest.
* ``run_pass(timer)`` — one measured pass over the workload's inputs
  (the ``pass`` phase) followed by warm replays of it (``replay``
  phases): sweeps replay from the cell cache, serve-drift re-serves
  with the hint memos its pass filled. Replays must be byte-identical.
* ``finish()`` — the sizing metrics over the first pass.

A pass also reports its wall split into *segments* that mean the same
thing in every pass (one per sweep cell, as the runner's progress
callback reports them, plus the report tail), so the benchmark can
take each segment's fastest time across passes and shrug off a burst
of machine noise that hits one pass.

Every output is checked; a failed check counts the operations it
covers as failed rather than stopping the run.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import shutil
import tempfile
import time
import typing as _t

from repro.errors import ReproError
from repro.profiling import profiler
from repro.scenarios import (
    ScenarioMatrix,
    SweepRunner,
    parse_arrival,
    parse_fleet,
)
from repro.scenarios import runner as sweep_runner
from repro.scenarios.registry import scenario_workflow
from repro.serving import ServingConfig, ServingLoop
from repro.synthesis.dag import clear_dag_hints_cache
from repro.synthesis.dp import clear_dp_cache
from repro.synthesis.generator import clear_hints_cache

__all__ = ["WORKLOADS", "build", "PassOutcome", "Sizing"]

#: Policies that only support chain workflows; a sweep may skip them on
#: a DAG workflow and nowhere else.
CHAIN_ONLY = frozenset({"Optimal", "ORION"})

#: Wall spent on warm replays after each sweep pass. A replay takes
#: milliseconds, so many are timed and ``replay_s`` is the fastest.
REPLAY_SECONDS = 0.1


@dataclasses.dataclass
class PassOutcome:
    """One measured pass: its wall, work done and checks."""

    wall_s: float
    segments: list[float]
    requests: int
    attempted: int
    failed: int
    digest: str
    replay_walls: list[float]


@dataclasses.dataclass
class Sizing:
    """Janus's cost relative to GrandSLAM and its SLO attainment, both
    request-weighted, from the first pass (deterministic per seed)."""

    janus_cost_pct: float
    janus_slo_pct: float


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def clear_memos() -> None:
    """Drop the process-wide profile and synthesis memos (cold set-up)."""
    profiles_memo = getattr(sweep_runner, "_profiles_for", None)
    if hasattr(profiles_memo, "cache_clear"):
        profiles_memo.cache_clear()
    clear_hints_cache()
    clear_dp_cache()
    clear_dag_hints_cache()


class SweepWorkload:
    """Scenario matrices through :class:`SweepRunner` (serial backend)."""

    def __init__(self, matrices: _t.Sequence[ScenarioMatrix], work_root: str) -> None:
        self.matrices = list(matrices)
        self.work_root = work_root
        self.cells = [{c.scenario_id: c for c in m.expand()} for m in self.matrices]
        self._reports: list[_t.Any] | None = None

    def setup(self) -> None:
        """Profile, synthesize and build every suite, from cold memos.

        One single-request analytic cell per (workflow, SLO, profile)
        family runs through :func:`run_scenario`, which fills the same
        memos the measured cells then hit.
        """
        clear_memos()
        seen = set()
        for cells in self.cells:
            for cell in cells.values():
                key = (cell.workflow, cell.slo_scale, cell.samples,
                       cell.profile_seed, cell.budget_ms)
                if key in seen:
                    continue
                seen.add(key)
                sweep_runner.run_scenario(dataclasses.replace(
                    cell, n_requests=1, tenants=1, executor=None,
                    cluster=None, faults=None, fleet=None,
                ))

    def _requests_per_cell(self, scenario: _t.Any) -> int:
        regions = len(scenario.fleet.regions) if scenario.fleet else 1
        return scenario.n_requests * scenario.tenants * regions

    def _failed_cells(self, cells: dict[str, _t.Any], report: _t.Any) -> int:
        failed = 0
        for cell_id, missing in report.skipped.items():
            topology = scenario_workflow(cells[cell_id].workflow).topology
            if topology != "dag" or not set(missing) <= CHAIN_ONLY:
                failed += 1
        return failed

    def run_pass(self, timer: _t.Any) -> PassOutcome:
        cache_dir = tempfile.mkdtemp(prefix="cells-", dir=self.work_root)
        try:
            return self._run_pass(timer, cache_dir)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

    def _run_pass(self, timer: _t.Any, cache_dir: str) -> PassOutcome:
        clock = time.perf_counter
        marks: list[float] = []
        runner = SweepRunner(
            max_workers=1, backend="serial", cache_dir=cache_dir,
            progress=lambda _line: marks.append(clock()),
        )
        reports: list[_t.Any] = []
        payloads: list[str | None] = []
        with timer.phase("pass") as timed:
            marks.append(clock())
            for matrix in self.matrices:
                try:
                    report = runner.run(matrix)
                except ReproError:
                    reports.append(None)
                    payloads.append(None)
                    continue
                reports.append(report)
                payloads.append(report.to_json())
                report.render()
            marks.append(clock())
        segments = [b - a for a, b in zip(marks, marks[1:])]
        attempted = sum(len(cells) for cells in self.cells)
        failed = 0
        requests = 0
        for cells, report in zip(self.cells, reports):
            if report is None:
                failed += len(cells)
                continue
            failed += self._failed_cells(cells, report)
            for result in report.results:
                requests += (
                    self._requests_per_cell(cells[result.scenario_id])
                    * len(result.table)
                )
        replayer = SweepRunner(max_workers=1, backend="serial", cache_dir=cache_dir)
        replay_walls: list[float] = []
        replay_ok = [True] * len(self.matrices)
        while sum(replay_walls) < REPLAY_SECONDS:
            with timer.phase("replay") as replayed:
                warm = [
                    replayer.run(m).to_json() if p is not None else None
                    for m, p in zip(self.matrices, payloads)
                ]
            replay_walls.append(replayed.wall_s)
            for i, (cold, again) in enumerate(zip(payloads, warm)):
                replay_ok[i] = replay_ok[i] and cold == again
        for cells, ok, payload in zip(self.cells, replay_ok, payloads):
            if not ok and payload is not None:
                failed += len(cells)
        if self._reports is None:
            self._reports = reports
        return PassOutcome(
            wall_s=timed.wall_s,
            segments=segments,
            requests=requests,
            attempted=attempted,
            failed=min(failed, attempted),
            digest=_digest("\n".join(p or "" for p in payloads)),
            replay_walls=replay_walls,
        )

    def sizing(self) -> Sizing:
        janus = grandslam = attained = served = 0.0
        for cells, report in zip(self.cells, self._reports or []):
            if report is None:
                continue
            for result in report.results:
                table = result.table
                if "Janus" not in table or "GrandSLAM" not in table:
                    continue
                n = self._requests_per_cell(cells[result.scenario_id])
                janus += table["Janus"]["mean_allocated_millicores"] * n
                grandslam += table["GrandSLAM"]["mean_allocated_millicores"] * n
                attained += (1.0 - table["Janus"]["violation_rate"]) * n
                served += n
        return Sizing(
            janus_cost_pct=100.0 * janus / grandslam if grandslam else 0.0,
            janus_slo_pct=100.0 * attained / served if served else 0.0,
        )


class ServeWorkload:
    """An unpaced :class:`ServingLoop` with forced drift (``janus-repro serve``)."""

    def __init__(self, config: ServingConfig) -> None:
        self.config = config
        self.profiles: _t.Any = None
        self._digest: str | None = None
        self._first: _t.Any = None

    def setup(self) -> None:
        """Profile, synthesize and build the policy, from cold memos."""
        clear_memos()
        cfg = self.config
        self.profiles = profiler.profile_workflow(
            scenario_workflow(cfg.workflow), seed=cfg.seed, samples=cfg.samples
        )
        ServingLoop(cfg, profiles=self.profiles)

    def _serve(self, config: ServingConfig) -> tuple[_t.Any, str]:
        loop = ServingLoop(config, profiles=self.profiles)
        report = asyncio.run(loop.run())
        payload = json.dumps(
            {
                "arrivals": report.arrivals,
                "completed": report.completed,
                "dropped": report.dropped,
                "swaps": report.swaps,
                "snapshot": report.snapshot,
            },
            sort_keys=True,
        )
        return report, _digest(payload)

    def _timed_serve(self, timer: _t.Any, kind: str) -> tuple[_t.Any, str, float]:
        report, digest = None, ""
        with timer.phase(kind) as timed:
            try:
                report, digest = self._serve(self.config)
            except ReproError:
                pass
        return report, digest, timed.wall_s

    def _failed(self, report: _t.Any, digest: str) -> int:
        """Failed requests of one serve: dropped or never served, or all
        of them when a run-level check (a hot swap, determinism) fails."""
        requested = self.config.max_requests
        if report is None or report.swaps < 1 or digest != self._digest:
            return requested
        return max(report.dropped, requested - report.completed)

    def run_pass(self, timer: _t.Any) -> PassOutcome:
        # Cold synthesis memos: the initial synthesis and every drift
        # re-synthesis run live, as in a fresh serve process.
        clear_hints_cache()
        clear_dp_cache()
        report, digest, wall = self._timed_serve(timer, "pass")
        if self._digest is None and report is not None:
            self._digest, self._first = digest, report
        failed = self._failed(report, digest)
        # Warm replay: the memos now hold every table the pass built.
        again, again_digest, replay_wall = self._timed_serve(timer, "replay")
        failed += self._failed(again, again_digest)
        return PassOutcome(
            wall_s=wall,
            segments=[wall],
            requests=report.completed if report is not None else 0,
            attempted=2 * self.config.max_requests,
            failed=failed,
            digest=digest,
            replay_walls=[replay_wall],
        )

    def sizing(self) -> Sizing:
        """Against a GrandSLAM serve of the same stream (same seed)."""
        if self._first is None:
            return Sizing(0.0, 0.0)
        reference, _ = self._serve(
            dataclasses.replace(self.config, policy="GrandSLAM")
        )
        grandslam = reference.snapshot["total_millicore_cost"]
        janus = self._first.snapshot["total_millicore_cost"]
        return Sizing(
            janus_cost_pct=100.0 * janus / grandslam if grandslam else 0.0,
            janus_slo_pct=100.0 * self._first.snapshot["slo_attainment"],
        )


def _sweep_default(seed: int, tiny: bool, work_root: str) -> SweepWorkload:
    if tiny:
        matrix = ScenarioMatrix(
            workflows=("IA",),
            arrivals=tuple(parse_arrival(a) for a in ("constant", "poisson@8")),
            slo_scales=(1.0,), tenant_counts=(1, 2),
            n_requests=20, samples=200, seed=seed,
        )
    else:
        # Exactly the `janus-repro sweep` defaults.
        matrix = ScenarioMatrix(
            workflows=("IA", "VA"),
            arrivals=tuple(
                parse_arrival(a)
                for a in ("constant", "poisson@8", "burst@8", "azure@8")
            ),
            slo_scales=(1.0, 1.25), tenant_counts=(1, 2), seed=seed,
        )
    return SweepWorkload([matrix], work_root)


def _sweep_large(seed: int, tiny: bool, work_root: str) -> SweepWorkload:
    streams = ScenarioMatrix(
        workflows=("IA", "VA", "media"),
        arrivals=(parse_arrival("azure@8"),),
        tenant_counts=(2,),
        policies=("GrandSLAM", "ORION", "Janus"),
        n_requests=300 if tiny else 10_000,
        seed=seed,
    )
    fleet = ScenarioMatrix(
        workflows=("IA",),
        arrivals=(parse_arrival("poisson@8"),),
        fleets=(parse_fleet("regions=3,routing=spillover,capacity=8"),),
        policies=("GrandSLAM", "Janus"),
        n_requests=200 if tiny else 3_000,
        seed=seed,
    )
    return SweepWorkload([streams, fleet], work_root)


def _cluster_knee(seed: int, tiny: bool, work_root: str) -> SweepWorkload:
    # 4/s and 8/s as evenly spaced arrivals: below and above the pool's
    # knee. Poisson arrivals at the same rates made the cost of the
    # congested cell swing by a third from seed to seed. The 2x SLO and
    # the longer below-knee stream keep Janus's attainment from swinging
    # with the seed: the congested cell meets almost no SLO either way.
    def knee(arrival: str, n_requests: int) -> ScenarioMatrix:
        return ScenarioMatrix(
            workflows=("IA",),
            arrivals=(parse_arrival(arrival),),
            slo_scales=(2.0,),
            executors=("cluster",),
            policies=("GrandSLAM", "Janus"),
            n_requests=n_requests,
            seed=seed,
        )

    if tiny:
        return SweepWorkload([knee("constant@250", 60), knee("constant@125", 30)], work_root)
    return SweepWorkload([knee("constant@250", 1200), knee("constant@125", 200)], work_root)


def _serve_drift(seed: int, tiny: bool, work_root: str) -> ServeWorkload:
    # `janus-repro serve` defaults otherwise: unpaced, no event-log path.
    return ServeWorkload(ServingConfig(
        workflow="IA",
        policy="Janus",
        source=parse_arrival("diurnal@50"),
        seed=seed,
        max_requests=1_500 if tiny else 10_000,
        workset_schedule=((600, 3.0),) if tiny else ((4_000, 3.0),),
    ))


WORKLOADS: dict[str, _t.Callable[[int, bool, str], _t.Any]] = {
    "sweep-default": _sweep_default,
    "sweep-large": _sweep_large,
    "cluster-knee": _cluster_knee,
    "serve-drift": _serve_drift,
}


def build(name: str, seed: int, tiny: bool, work_root: str) -> _t.Any:
    """The named workload, its inputs derived from ``seed``."""
    return WORKLOADS[name](seed, tiny, work_root)
