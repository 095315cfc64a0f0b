"""Node-keyed sizing policies for branching workflows (paper §VII).

These policies answer natively by function name because parallel branches
have no global stage order. They are plain :class:`SizingPolicy` subclasses
since the unification of the chain and DAG interfaces.

:class:`DagJanusPolicy` is the late-binding adaptation policy over
per-function hint tables; :class:`DagFixedPolicy` carries a fixed
allocation map (early binding); :class:`DagGrandSLAMPolicy` sizes uniformly
against the critical path's anchor-percentile latency.
"""

from __future__ import annotations

import typing as _t

import numpy as np

from ..adapter.supervisor import HitMissSupervisor
from ..errors import PolicyError
from ..profiling.profiles import ProfileSet
from ..synthesis.dag import DagWorkflowHints
from ..types import Millicores, Milliseconds
from ..workflow.catalog import Workflow
from ..workflow.request import WorkflowRequest
from .base import SizingPolicy

__all__ = [
    "DagFixedPolicy",
    "DagGrandSLAMPolicy",
    "DagJanusPolicy",
]


class DagFixedPolicy(SizingPolicy):
    """Early binding: immutable per-function allocation map."""

    def __init__(self, name: str, plan: _t.Mapping[str, Millicores]) -> None:
        if not plan:
            raise PolicyError("plan may not be empty")
        if any(k <= 0 for k in plan.values()):
            raise PolicyError(f"plan sizes must be positive: {plan}")
        self.name = name
        self.plan = dict(plan)

    def size_for_node(
        self,
        node: str,
        request: WorkflowRequest,
        elapsed_ms: Milliseconds,
    ) -> Millicores:
        try:
            return self.plan[node]
        except KeyError:
            raise PolicyError(f"{self.name}: no plan entry for {node!r}")

    def sizes_for_node(
        self,
        node: str,
        requests: _t.Sequence[WorkflowRequest],
        elapsed_ms: "np.ndarray",
    ) -> "np.ndarray":
        try:
            size = self.plan[node]
        except KeyError:
            raise PolicyError(f"{self.name}: no plan entry for {node!r}")
        return np.full(len(requests), size, dtype=np.int64)

    @property
    def total_millicores(self) -> int:
        """Sum of the fixed allocation."""
        return sum(self.plan.values())


class DagGrandSLAMPolicy(DagFixedPolicy):
    """Uniform sizes against the critical path's P99 latency."""

    def __init__(
        self,
        workflow: Workflow,
        profiles: ProfileSet,
        slo_ms: Milliseconds | None = None,
        name: str = "GrandSLAM-DAG",
    ) -> None:
        slo = float(slo_ms if slo_ms is not None else workflow.slo_ms)
        anchor = profiles.percentiles.anchor
        limits = workflow.limits
        chosen: Millicores | None = None
        for k in limits.grid():
            weights = {
                n: profiles[n].latency(anchor, int(k)) for n in workflow.dag.nodes
            }
            path = workflow.dag.critical_path(weights)
            if sum(weights[n] for n in path) <= slo:
                chosen = int(k)
                break
        if chosen is None:
            raise PolicyError(
                f"DagGrandSLAM: no uniform size meets SLO {slo} ms"
            )
        super().__init__(name, {n: chosen for n in workflow.dag.nodes})


class DagJanusPolicy(SizingPolicy):
    """Late binding over per-function hint tables."""

    late_binding = True

    def __init__(
        self,
        workflow: Workflow,
        hints: DagWorkflowHints,
        slo_ms: Milliseconds | None = None,
        name: str = "Janus-DAG",
    ) -> None:
        missing = [n for n in workflow.dag.nodes if n not in hints.tables]
        if missing:
            raise PolicyError(f"{name}: hints missing for {missing}")
        self.name = name
        self.workflow = workflow
        self.hints = hints
        self.slo_ms = float(slo_ms if slo_ms is not None else workflow.slo_ms)
        self.supervisor = HitMissSupervisor()

    def size_for_node(
        self,
        node: str,
        request: WorkflowRequest,
        elapsed_ms: Milliseconds,
    ) -> Millicores:
        budget = self.slo_ms - elapsed_ms
        result = self.hints.table_for(node).lookup(budget)
        self.supervisor.record(result.hit)
        return result.size

    def sizes_for_node(
        self,
        node: str,
        requests: _t.Sequence[WorkflowRequest],
        elapsed_ms: "np.ndarray",
    ) -> "np.ndarray":
        budgets = self.slo_ms - np.asarray(elapsed_ms, dtype=np.float64)
        sizes, hits = self.hints.table_for(node).lookup_many(budgets)
        self.supervisor.record_many(hits)
        return sizes

    @property
    def hit_rate(self) -> float:
        """Fraction of table lookups that hit."""
        return self.supervisor.hit_rate

    @property
    def synthesis_seconds(self) -> float:
        """Offline synthesis time of the deployed tables."""
        return self.hints.synthesis_seconds
