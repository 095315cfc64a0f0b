"""Sweep results: slim per-cell records aggregated into one report.

Workers return :class:`ScenarioResult` — scenario identity plus the
per-policy metric table, no raw outcomes — so pooled runs ship kilobytes,
not the full request streams, across the process boundary. The aggregate
:class:`SweepReport` serialisation is deliberately timing-free: two runs of
the same matrix with the same seed produce byte-identical JSON whether they
ran serially or on a pool, which is what the determinism tests assert.
"""

from __future__ import annotations

import csv
import io
import json
import typing as _t
from dataclasses import asdict, dataclass, field

from ..errors import ExperimentError
from ..metrics.report import format_table

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from .matrix import Scenario

__all__ = ["ScenarioResult", "SweepReport"]

#: Metric columns every cell's table carries per policy.
CELL_METRICS = (
    "mean_allocated_millicores",
    "normalized_cpu",
    "p50_e2e_ms",
    "p99_e2e_ms",
    "violation_rate",
    "mean_slack",
)

#: Platform extras promoted to CSV columns (blank on analytic cells;
#: fault counters additionally blank on fault-free cluster cells, so
#: pre-existing cell payloads stay byte-identical).
EXTRA_METRICS = (
    "cold_start_rate",
    "mean_cluster_allocated",
    "throttled",
    "preemptions",
    "evictions",
    "retries",
    "straggler_exposure",
    # Fleet accounting (blank on single-region cells). Per-region keys
    # (request share, SLO attainment, cold starts by region name) live in
    # the JSON extras only — region names are config-dependent, so they
    # cannot be fixed CSV columns.
    "fleet_spillovers",
    "fleet_failovers",
    "fleet_remote_fraction",
    "fleet_rtt_penalty_ms",
)

#: Deterministic per-policy extras the runner carries from
#: :class:`~repro.runtime.results.RunResult` into each cell. Anything not
#: listed here (e.g. wall-clock diagnostics such as ``synthesis_seconds``)
#: stays out of the payload so sweep JSON remains byte-stable.
CARRIED_EXTRAS = EXTRA_METRICS + (
    "idle_millicore_ms",
    "autoscaler_adjustments",
    "hit_rate",
)


@dataclass(frozen=True)
class ScenarioResult:
    """Per-policy metrics of one evaluated scenario cell."""

    scenario_id: str
    workflow: str
    arrival: str
    slo_scale: float
    tenants: int
    slo_ms: float
    seed: int
    baseline: str
    executor: str
    table: dict[str, dict[str, float]]
    #: Per-policy extras: platform stats (cold-start rate, mean allocated
    #: cluster millicores, throttle count, ...) on cluster-backend cells,
    #: plus policy diagnostics (``hit_rate``) wherever the policy reports
    #: them — analytic cells carry only the latter.
    extras: dict[str, dict[str, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.table:
            raise ExperimentError(f"{self.scenario_id}: empty result table")

    def metric(self, policy: str, name: str) -> float:
        """One metric value for one policy (raises on unknown policy)."""
        try:
            return float(self.table[policy][name])
        except KeyError:
            raise ExperimentError(
                f"{self.scenario_id}: no {name!r} for policy {policy!r} "
                f"(have {sorted(self.table)})"
            )

    def extra(self, policy: str, name: str) -> float | None:
        """One extra for one policy, or ``None`` when the cell's backend
        did not report it (e.g. platform stats on an analytic cell)."""
        return self.extras.get(policy, {}).get(name)

    def attainment(self, policy: str) -> float:
        """SLO attainment (1 - violation rate) of one policy."""
        return 1.0 - self.metric(policy, "violation_rate")


@dataclass
class SweepReport:
    """Aggregated results of one :class:`ScenarioMatrix` run."""

    results: list[ScenarioResult]
    seed: int
    wall_seconds: float = 0.0
    max_workers: int = 1
    skipped: dict[str, list[str]] = field(default_factory=dict)
    #: Execution backend that scheduled the cells (results are
    #: backend-independent; this is provenance for the rendered summary).
    backend: str = "serial"
    #: Cell-cache lookup counters (``{"hits": .., "misses": ..}``; empty
    #: when caching was off). Diagnostics only — like ``wall_seconds``,
    #: deliberately excluded from :meth:`to_dict`, because counter values
    #: depend on scheduling (which worker's cold memo served a cell), not
    #: on the results.
    cell_cache: dict[str, int] = field(default_factory=dict)
    #: Synthesis memo counters summed over evaluated cells, per section
    #: (``{"dp": {"memory_hits": .., "disk_hits": .., "solves": ..},
    #: "hints": {...}}``). Diagnostics only, excluded from the JSON.
    synthesis_cache: dict[str, dict[str, int]] = field(default_factory=dict)
    #: Backend scheduling diagnostics, for backends that report any — the
    #: distributed fabric's per-host ``{"hosts": {label: {"workers": ..,
    #: "completed": .., "lost": .., "wall_seconds": ..}}, "redispatched":
    #: ..}`` counters. Diagnostics only, excluded from the JSON: which
    #: host evaluated a cell can never change the cell.
    backend_stats: dict[str, _t.Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.results:
            raise ExperimentError("sweep produced no results")

    # -- introspection ------------------------------------------------------
    @property
    def num_cells(self) -> int:
        """Number of evaluated scenario cells."""
        return len(self.results)

    def policies(self) -> list[str]:
        """Every policy that produced a result in at least one cell."""
        seen: dict[str, None] = {}
        for res in self.results:
            for name in res.table:
                seen.setdefault(name)
        return list(seen)

    def cells_for(self, policy: str) -> list[ScenarioResult]:
        """Cells in which ``policy`` was evaluated."""
        return [r for r in self.results if policy in r.table]

    # -- per-policy aggregates ----------------------------------------------
    def mean_metric(self, policy: str, name: str) -> float:
        """Mean of one metric over every cell the policy appears in."""
        cells = self.cells_for(policy)
        if not cells:
            raise ExperimentError(f"policy {policy!r} appears in no cell")
        return sum(c.metric(policy, name) for c in cells) / len(cells)

    def attainment(self, policy: str) -> float:
        """Mean SLO attainment across the matrix."""
        return 1.0 - self.mean_metric(policy, "violation_rate")

    def baselines(self) -> list[str]:
        """Distinct normalisation baselines across cells (usually one).

        More than one entry means normalised-CPU numbers are not mutually
        comparable across all cells — e.g. a mixed chain/DAG matrix where
        ``Optimal`` exists only on the chains. Pin ``ScenarioMatrix.
        baseline`` to force uniformity (cells that cannot build it die).
        """
        seen: dict[str, None] = {}
        for res in self.results:
            seen.setdefault(res.baseline)
        return list(seen)

    def mean_normalized_cpu(self, policy: str) -> float:
        """Mean *per-cell-baseline*-normalised CPU across the matrix.

        Check :meth:`baselines` before comparing across policies — with
        mixed baselines this mean mixes normalisation denominators.
        """
        return self.mean_metric(policy, "normalized_cpu")

    def mean_extra(self, policy: str, name: str) -> float:
        """Mean of one extra over the cells that report it.

        Platform stats (cold-start rate, mean allocated cluster
        millicores, throttle count) exist only on cluster-backend cells,
        so their mean is cluster-only; policy diagnostics like
        ``hit_rate`` are reported by every backend and average across all
        of them. Raises when no cell reports ``name``.
        """
        values = [
            v for r in self.results
            if (v := r.extra(policy, name)) is not None
        ]
        if not values:
            raise ExperimentError(
                f"no cell reports extra {name!r} for policy {policy!r}"
            )
        return sum(values) / len(values)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-policy aggregate rows (the :meth:`render` table)."""
        out: dict[str, dict[str, float]] = {}
        for policy in self.policies():
            out[policy] = {
                "cells": float(len(self.cells_for(policy))),
                "slo_attainment": self.attainment(policy),
                "mean_cpu_millicores": self.mean_metric(
                    policy, "mean_allocated_millicores"
                ),
                "normalized_cpu": self.mean_normalized_cpu(policy),
                "p50_e2e_ms": self.mean_metric(policy, "p50_e2e_ms"),
                "p99_e2e_ms": self.mean_metric(policy, "p99_e2e_ms"),
            }
        return out

    # -- export --------------------------------------------------------------
    def to_dict(self) -> dict[str, _t.Any]:
        """Timing-free payload: byte-stable for a given matrix + seed."""
        return {
            "seed": self.seed,
            "num_cells": self.num_cells,
            "skipped": {k: list(v) for k, v in sorted(self.skipped.items())},
            "results": [asdict(r) for r in self.results],
        }

    def to_json(self, indent: int | None = None) -> str:
        """Deterministic JSON of :meth:`to_dict` (excludes wall time)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def write_json(self, path: str) -> None:
        """Write :meth:`to_json` to ``path``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json(indent=2))

    def to_csv(self) -> str:
        """One CSV row per (cell, policy) with every cell metric.

        Platform extras (:data:`EXTRA_METRICS`) trail the metric columns;
        they are blank for cells whose backend reports none.
        """
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["scenario_id", "workflow", "arrival", "slo_scale", "tenants",
             "slo_ms", "baseline", "executor", "policy", "slo_attainment",
             *CELL_METRICS, *EXTRA_METRICS]
        )
        for res in self.results:
            for policy, row in res.table.items():
                extra_cols = [
                    v if (v := res.extra(policy, m)) is not None else ""
                    for m in EXTRA_METRICS
                ]
                writer.writerow(
                    [res.scenario_id, res.workflow, res.arrival,
                     res.slo_scale, res.tenants, res.slo_ms, res.baseline,
                     res.executor, policy, 1.0 - row["violation_rate"]]
                    + [row[m] for m in CELL_METRICS]
                    + extra_cols
                )
        return buf.getvalue()

    def write_csv(self, path: str) -> None:
        """Write :meth:`to_csv` to ``path``."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(self.to_csv())

    # -- presentation ---------------------------------------------------------
    def render(self) -> str:
        """Aggregate table plus sweep-level diagnostics."""
        rows = [
            (
                policy,
                int(agg["cells"]),
                agg["slo_attainment"],
                agg["mean_cpu_millicores"],
                agg["normalized_cpu"],
                agg["p50_e2e_ms"],
                agg["p99_e2e_ms"],
            )
            for policy, agg in self.summary().items()
        ]
        table = format_table(
            ["policy", "cells", "SLO att.", "mean CPU (mc)", "norm. CPU",
             "P50 (ms)", "P99 (ms)"],
            rows,
            title=(
                f"Scenario sweep: {self.num_cells} cells, seed {self.seed}, "
                f"{self.backend} backend, {self.max_workers} worker(s), "
                f"{self.wall_seconds:.1f} s"
            ),
        )
        if self.cell_cache:
            table += (
                f"\ncell cache: {self.cell_cache.get('hits', 0)} hit(s), "
                f"{self.cell_cache.get('misses', 0)} miss(es)"
            )
        if self.synthesis_cache:
            parts = []
            for section in sorted(self.synthesis_cache):
                counters = self.synthesis_cache[section]
                inner = ", ".join(
                    f"{name} {counters[name]}" for name in sorted(counters)
                )
                parts.append(f"{section}[{inner}]")
            table += f"\nsynthesis caches: {'; '.join(parts)}"
        hosts = self.backend_stats.get("hosts", {})
        for label in sorted(hosts):
            h = hosts[label]
            table += (
                f"\nhost {label}: {h.get('workers', 0)} worker(s), "
                f"{h.get('completed', 0)} cell(s), "
                f"{h.get('lost', 0)} lost"
            )
        redispatched = self.backend_stats.get("redispatched", 0)
        if redispatched:
            table += (
                f"\nre-dispatched after worker loss: {redispatched} cell(s)"
            )
        baselines = self.baselines()
        if len(baselines) > 1:
            table += (
                f"\nNOTE: norm. CPU mixes per-cell baselines "
                f"({', '.join(baselines)}) — pin ScenarioMatrix.baseline "
                f"for comparable ratios"
            )
        if self.skipped:
            notes = "; ".join(
                f"{sid}: {', '.join(names)}"
                for sid, names in sorted(self.skipped.items())
            )
            table += f"\nskipped (infeasible/unsupported): {notes}"
        return table

    def __str__(self) -> str:
        return self.render()
