"""Sizing-policy interface.

A policy answers one question: *how many millicores should this node of
this request get?* Early-binding policies answer from a fixed offline plan;
late-binding policies may use the request's elapsed time (Janus) or even its
realised execution dynamics (the Optimal oracle).

The canonical entry point is :meth:`SizingPolicy.size_for_node`, keyed by
``(node, request, elapsed_ms)``: a chain is just a degenerate DAG (see
:func:`repro.workflow.chain.chain_dag`), so one interface serves both
topologies. :meth:`size_for_stage` — the historical chain API, keyed by
stage index — maps the index onto :attr:`stage_order` and delegates to
:meth:`size_for_node`; stage-indexed policies may still override it and
the base :meth:`size_for_node` routes back through it.

A concrete policy must override at least one of the two methods.
"""

from __future__ import annotations

import abc
import typing as _t

import numpy as np

from ..errors import PolicyError
from ..types import Millicores, Milliseconds
from ..workflow.request import WorkflowRequest

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..workflow.catalog import Workflow

__all__ = ["SizingPolicy"]


class SizingPolicy(abc.ABC):
    """Per-node allocation decisions for workflow requests."""

    #: Human-readable policy name (used in reports and plots).
    name: str = "policy"

    #: True for policies that may change sizes at runtime.
    late_binding: bool = False

    #: Node names in execution order, used to translate between the
    #: stage-indexed chain API and the node-keyed interface. Executors call
    #: :meth:`bind` to (re)derive it from the workflow they serve.
    stage_order: tuple[str, ...] | None = None

    #: Workflow this policy was last bound to (identity-checked by bind()).
    _bound_workflow: "Workflow | None" = None

    #: name -> stage index, derived by bind() alongside stage_order.
    _node_index: dict[str, int] | None = None

    def bind(self, workflow: "Workflow") -> None:
        """Attach ``workflow``'s execution order for index/name translation.

        Executors call it per request, so rebinding to the same workflow is
        an identity check — ``workflow.chain`` (a critical-path search on
        branching DAGs) is only evaluated when the workflow changes.
        Positional policies (fixed plans, hint tables) need this to answer
        node-keyed queries. Rebinding across workflows with the *same*
        execution order (SLO variants of one app, tenants running the same
        catalog workflow) is a no-op, so such sharing stays safe; sharing
        one instance across workflows with *different* function orders is
        unsupported — the binding is mutable state, use one policy per
        workflow as every driver in this package does.
        """
        if self._bound_workflow is workflow and self.stage_order is not None:
            return
        order = tuple(workflow.chain)
        if order != self.stage_order:
            self.stage_order = order
            self._node_index = None
        self._bound_workflow = workflow

    def begin_request(self, request: WorkflowRequest) -> None:
        """Hook invoked when a request starts (before any sizing)."""

    def size_for_node(
        self,
        node: str,
        request: WorkflowRequest,
        elapsed_ms: Milliseconds,
    ) -> Millicores:
        """Allocation for ``node`` given time already spent.

        The base implementation dispatches to :meth:`size_for_stage` when
        the subclass overrides it; node-keyed policies override this
        directly.
        """
        if type(self).size_for_stage is not SizingPolicy.size_for_stage:
            return self.size_for_stage(
                self._stage_index(node), request, elapsed_ms
            )
        raise PolicyError(
            f"{self.name}: policy overrides none of size_for_node / "
            f"size_for_stage"
        )

    def sizes_for_node(
        self,
        node: str,
        requests: _t.Sequence[WorkflowRequest],
        elapsed_ms: np.ndarray,
    ) -> np.ndarray:
        """Batched :meth:`size_for_node` over aligned request/elapsed arrays.

        The base implementation loops over the scalar method, so any
        third-party policy automatically works under the batched executors;
        the registry policies override this with native vector lookups.
        Elements are bit-identical to the scalar calls by construction.
        Batched executors fire hooks begin-all / node-major / end-all, so
        sizing must depend only on ``(node, request, elapsed)``, not on the
        interleaving of calls across requests.
        """
        elapsed = np.asarray(elapsed_ms, dtype=np.float64).tolist()
        return np.fromiter(
            (
                self.size_for_node(node, request, el)
                for request, el in zip(requests, elapsed)
            ),
            dtype=np.int64,
            count=len(requests),
        )

    def size_for_stage(
        self,
        stage_index: int,
        request: WorkflowRequest,
        elapsed_ms: Milliseconds,
    ) -> Millicores:
        """Chain-API compatibility shim: stage ``i`` is ``stage_order[i]``."""
        order = self._require_order()
        if not 0 <= stage_index < len(order):
            raise PolicyError(
                f"{self.name}: stage {stage_index} outside order of {len(order)}"
            )
        return self.size_for_node(order[stage_index], request, elapsed_ms)

    def end_request(self, request: WorkflowRequest) -> None:
        """Hook invoked after the last node completes."""

    # ------------------------------------------------------------------
    def _require_order(self) -> tuple[str, ...]:
        if self.stage_order is None:
            raise PolicyError(
                f"{self.name}: no stage order bound; call bind(workflow) or "
                f"set stage_order before stage-indexed sizing"
            )
        return self.stage_order

    def _stage_index(self, node: str) -> int:
        order = self._require_order()
        if self._node_index is None:
            self._node_index = {n: i for i, n in enumerate(order)}
        try:
            return self._node_index[node]
        except KeyError:
            raise PolicyError(
                f"{self.name}: node {node!r} not in stage order {list(order)}; "
                f"stage-indexed policies cover only the chain (critical path) "
                f"— override size_for_node to serve branching workflows"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
