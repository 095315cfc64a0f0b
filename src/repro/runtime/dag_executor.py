"""Trace-driven execution of DAG workflows with parallel branches.

Extends the analytic backend to branching workflows (paper §VII future
work): a function starts as soon as *all* its predecessors finished, runs
concurrently with sibling branches, and the request completes when every
sink has finished. End-to-end latency is therefore the critical-path length
under the realised per-stage durations.

The walk itself is the analytic backend's (:mod:`repro.runtime.executor`)
over every node of :attr:`~repro.workflow.catalog.Workflow.dag` instead
of the chain; outcome stages are reported in completion order. Registered
as ``"dag"`` — the auto-selected backend for branching workflows; on a
chain it serves the same path graph as ``"analytic"``.
"""

from __future__ import annotations

import typing as _t

from ..policies.base import SizingPolicy
from ..workflow.catalog import Workflow
from ..workflow.request import WorkflowRequest
from .executor import Graph, _GraphExecutor
from .registry import register_executor
from .results import RunResult

__all__ = ["DagAnalyticExecutor"]


@register_executor("dag")
class DagAnalyticExecutor(_GraphExecutor):
    """Replays request streams through a DAG under a sizing policy."""

    @staticmethod
    def _served_graph(workflow: Workflow) -> Graph:
        nodes = tuple(workflow.dag.nodes)
        return nodes, tuple(
            tuple(nodes.index(p) for p in workflow.dag.predecessors(name))
            for name in nodes
        )

    def run(
        self, policy: SizingPolicy, requests: _t.Sequence[WorkflowRequest]
    ) -> RunResult:
        """Serve a whole stream and collect a :class:`RunResult`."""
        return self._run(policy, requests)
