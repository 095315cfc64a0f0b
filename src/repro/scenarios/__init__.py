"""Declarative scenario sweeps: matrix -> seeded scenarios -> one report.

The paper's evaluation fixes a handful of workload shapes; the ROADMAP's
north star is broad scenario coverage. This package turns "arrival process
x workload topology x SLO multiplier x tenant count x policy suite" into a
first-class object:

* :class:`ScenarioMatrix` — the declarative cartesian product, expanded
  into seeded, picklable :class:`Scenario` specs with per-scenario RNG
  streams derived from one master seed.
* :class:`SweepRunner` — executes the matrix through
  :meth:`repro.api.Session.compare` on a pluggable
  :class:`ExecutionBackend` (``serial``, the process ``pool`` that
  dispatches expensive cells first, or the multi-host ``distributed``
  fabric with cross-host stealing and cell-cache resume), with
  bit-identical results on every backend.
* :class:`CellCache` — content-addressed per-cell result persistence
  (plus disk layers behind the DP/hints memos) so repeated and
  overlapping sweeps skip already-computed cells.
* :class:`SweepReport` — per-policy SLO attainment / cost / latency across
  every cell, renderable and exportable to CSV/JSON.

Quickstart::

    >>> from repro.scenarios import ScenarioMatrix, SweepRunner
    >>> from repro.traces.workload import ArrivalSpec
    >>> matrix = ScenarioMatrix(
    ...     workflows=("IA", "VA"),
    ...     arrivals=(ArrivalSpec("constant"), ArrivalSpec("poisson", 8.0)),
    ...     slo_scales=(1.0, 1.25),
    ...     n_requests=200,
    ... )
    >>> report = SweepRunner(max_workers=4).run(matrix)
    >>> print(report.render())
"""

from .backends import (
    ExecutionBackend,
    PoolBackend,
    SerialBackend,
    backend_names,
    get_backend,
    register_backend,
)
from .cache import CellCache, configure_persistent_caches, scenario_digest
from .distributed import DistributedBackend, HostSpec, parse_hosts
from .matrix import (
    Scenario,
    ScenarioMatrix,
    parse_arrival,
    parse_cluster_config,
    parse_fault,
    parse_fleet,
    storm_arrival,
)
from .registry import SCENARIO_WORKFLOWS, register_workflow, scenario_workflow
from .report import ScenarioResult, SweepReport
from .runner import SweepRunner, evaluate_cell, run_scenario, scenario_requests

__all__ = [
    "Scenario",
    "ScenarioMatrix",
    "ScenarioResult",
    "SweepReport",
    "SweepRunner",
    "ExecutionBackend",
    "SerialBackend",
    "PoolBackend",
    "DistributedBackend",
    "HostSpec",
    "parse_hosts",
    "register_backend",
    "backend_names",
    "get_backend",
    "CellCache",
    "scenario_digest",
    "configure_persistent_caches",
    "parse_arrival",
    "parse_cluster_config",
    "parse_fault",
    "parse_fleet",
    "storm_arrival",
    "evaluate_cell",
    "run_scenario",
    "scenario_requests",
    "register_workflow",
    "scenario_workflow",
    "SCENARIO_WORKFLOWS",
]
