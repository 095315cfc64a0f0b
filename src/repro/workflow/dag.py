"""Workflow DAG model.

A serverless workflow is a directed acyclic graph whose nodes are functions
and whose edges are data dependencies (paper §I). The evaluation workflows
(IA, VA) are chains; the model supports general DAGs with validation,
topological ordering, and a critical-path linearisation used to apply the
chain-based synthesis algorithms to branching workflows (paper §VII lists
complex workflows as the natural extension).
"""

from __future__ import annotations

import typing as _t

from ..errors import WorkflowError

__all__ = ["WorkflowDAG"]


class WorkflowDAG:
    """Immutable directed acyclic graph of function names.

    Adjacency lists keep edge-insertion order (critical-path ties break on
    it); :attr:`nodes` is generation-wise Kahn order (sources in node
    order, then freed successors in edge order), fixed at construction.
    """

    def __init__(
        self,
        nodes: _t.Iterable[str],
        edges: _t.Iterable[tuple[str, str]] = (),
    ) -> None:
        node_list = list(nodes)
        if not node_list:
            raise WorkflowError("workflow must contain at least one function")
        if len(set(node_list)) != len(node_list):
            raise WorkflowError(f"duplicate function names: {node_list}")
        succ: dict[str, list[str]] = {n: [] for n in node_list}
        pred: dict[str, list[str]] = {n: [] for n in node_list}
        for u, v in edges:
            if u not in succ or v not in succ:
                raise WorkflowError(f"edge ({u!r}, {v!r}) references unknown node")
            if u == v:
                raise WorkflowError(f"self-loop on {u!r}")
            if v not in succ[u]:
                succ[u].append(v)
                pred[v].append(u)
        self._succ = succ
        self._pred = pred
        self._order = self._generations(node_list)
        self._edges = [(u, v) for u in node_list for v in succ[u]]
        # Acyclic with degrees <= 1 is a set of disjoint paths; n - 1
        # edges make it one.
        self._is_chain = len(self._edges) == len(node_list) - 1 and all(
            len(succ[v]) <= 1 and len(pred[v]) <= 1 for v in node_list
        )

    def _generations(self, node_list: list[str]) -> list[str]:
        """Kahn's algorithm, one generation of freed nodes at a time."""
        indegree = {v: len(self._pred[v]) for v in node_list}
        generation = [v for v in node_list if indegree[v] == 0]
        order: list[str] = []
        while generation:
            order.extend(generation)
            freed = []
            for node in generation:
                for child in self._succ[node]:
                    indegree[child] -= 1
                    if indegree[child] == 0:
                        freed.append(child)
            generation = freed
        if len(order) != len(node_list):
            stuck = [v for v in node_list if indegree[v] > 0]
            raise WorkflowError(f"workflow contains a cycle through {stuck}")
        return order

    # -- introspection ------------------------------------------------------
    @property
    def nodes(self) -> list[str]:
        """Function names in topological order."""
        return list(self._order)

    @property
    def num_nodes(self) -> int:
        return len(self._order)

    @property
    def edges(self) -> list[tuple[str, str]]:
        return list(self._edges)

    def successors(self, node: str) -> list[str]:
        """Immediate downstream functions of ``node``."""
        self._check(node)
        return list(self._succ[node])

    def predecessors(self, node: str) -> list[str]:
        """Immediate upstream functions of ``node``."""
        self._check(node)
        return list(self._pred[node])

    def sources(self) -> list[str]:
        """Entry functions (no predecessors)."""
        return [n for n in self._order if not self._pred[n]]

    def sinks(self) -> list[str]:
        """Exit functions (no successors)."""
        return [n for n in self._order if not self._succ[n]]

    def _check(self, node: str) -> None:
        if node not in self._succ:
            raise WorkflowError(f"unknown function {node!r}")

    # -- shape --------------------------------------------------------------
    @property
    def is_chain(self) -> bool:
        """True when the DAG is a simple path f1 -> f2 -> ... -> fN."""
        return self._is_chain

    def as_chain(self) -> list[str]:
        """The node sequence when the DAG is a chain; raises otherwise."""
        if not self._is_chain:
            raise WorkflowError("workflow is not a chain; use critical_path()")
        return list(self._order)

    def critical_path(self, weights: _t.Mapping[str, float]) -> list[str]:
        """Longest path by node weight — the chain approximation for DAGs.

        ``weights`` maps every function to a representative execution time;
        the returned path is the latency-dominant chain on which the
        synthesis algorithms operate for non-chain workflows.
        """
        missing = [n for n in self._order if n not in weights]
        if missing:
            raise WorkflowError(f"missing weights for {missing}")
        if any(weights[n] < 0 for n in self._order):
            raise WorkflowError("weights must be >= 0")
        best: dict[str, tuple[float, list[str]]] = {}
        for node in self._order:  # topological order: predecessors done first
            preds = self._pred[node]
            if preds:
                prev_cost, prev_path = max(
                    (best[p] for p in preds), key=lambda item: item[0]
                )
            else:
                prev_cost, prev_path = 0.0, []
            best[node] = (prev_cost + float(weights[node]), prev_path + [node])
        return max(best.values(), key=lambda item: item[0])[1]

    def subgraph(self, nodes: _t.Iterable[str]) -> "WorkflowDAG":
        """Induced sub-DAG over ``nodes`` (order preserved)."""
        keep = [n for n in self._order if n in set(nodes)]
        if not keep:
            raise WorkflowError("subgraph would be empty")
        keep_set = set(keep)
        edges = [(u, v) for u, v in self._edges if u in keep_set and v in keep_set]
        return WorkflowDAG(keep, edges)

    def __contains__(self, node: str) -> bool:
        return node in self._succ

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WorkflowDAG):
            return NotImplemented
        return (
            set(self._order) == set(other._order)
            and set(self._edges) == set(other._edges)
        )

    def __hash__(self) -> int:
        return hash((frozenset(self._order), frozenset(self._edges)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WorkflowDAG(nodes={self.nodes}, edges={self.edges})"
