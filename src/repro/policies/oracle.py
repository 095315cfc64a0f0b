"""The Optimal oracle — "the best that can be achieved in any late-binding
solution" (paper §V-A).

The oracle sees each request's realised execution dynamics *in advance*
(possible here because requests carry their pre-drawn
:class:`InvocationDynamics`) and solves, per request, the minimum-resource
allocation whose *actual* stage times fit the SLO:

    min sum_i k_i   s.t.   sum_i t_i(k_i; request) <= SLO.

Since ``k = kmin + step * index``, :func:`solve_plans` minimises the index
sum with a dynamic program indexed by cost, not time (``N * (K - 1) + 1``
columns whatever the SLO in milliseconds), over every request queued by
``begin_request`` at once, on the next sizing call. Its plans are the
lexicographically smallest optimal ones: those of the time-indexed DP kept
in ``tests/test_oracle.py`` as the parity reference. When even Kmax
everywhere cannot meet the SLO (an inherently slow request), the oracle
allocates Kmax — the violation is unavoidable for any policy.
"""

from __future__ import annotations

import typing as _t

import numpy as np

from ..errors import PolicyError
from ..types import Millicores, Milliseconds
from ..workflow.catalog import Workflow
from ..workflow.request import RequestBlock, WorkflowRequest
from .base import SizingPolicy

__all__ = ["OraclePolicy", "solve_plans"]

#: Requests per solve: bounds the DP tables' memory for any batch size.
_SOLVE_BLOCK = 1024


def solve_plans(durations: np.ndarray, tmax: int) -> np.ndarray:
    """Least-index-sum plans: ``int64[R, N]`` grid indices per request.

    ``durations`` is ``int64[N, R, K]``, stage ``j``'s duration for request
    ``r`` at grid index ``ki``. A plan fits when its durations sum to at
    most ``tmax``; among the plans with the least index sum the
    lexicographically smallest is returned. Rows where no plan fits are
    all ``-1``.
    """
    n, rows, num_k = durations.shape
    width = n * (num_k - 1) + 1
    # Any partial sum above tmax is infeasible: clipping there keeps the
    # sums exact where they matter and far from int64 overflow.
    cap = max(tmax, 0) + 1
    d = np.minimum(durations, cap)
    # tails[j][r, c]: least duration of stages j.. with index sum <= c.
    tails = [np.zeros((rows, width), dtype=np.int64)]
    for j in range(n - 1, -1, -1):
        nxt, cur = tails[0], np.full((rows, width), cap, dtype=np.int64)
        for ki in range(num_k):
            view = cur[:, ki:]
            np.minimum(view, d[j, :, ki, None] + nxt[:, : width - ki], out=view)
        tails.insert(0, np.minimum(cur, cap, out=cur))
    # Forward rebuild from the least feasible index sum: the smallest
    # index at each stage whose best completion still fits.
    at = np.arange(rows)
    ks = np.arange(num_k)
    c = np.argmax(tails[0] <= tmax, axis=1)
    budget = np.full(rows, tmax, dtype=np.int64)
    plan = np.empty((rows, n), dtype=np.int64)
    for j in range(n):
        cols = c[:, None] - ks
        tail = tails[j + 1][at[:, None], np.maximum(cols, 0)]
        ki = np.argmax((cols >= 0) & (d[j] + tail <= budget[:, None]), axis=1)
        plan[:, j] = ki
        budget -= d[j, at, ki]
        c -= ki
    plan[tails[0][:, -1] > tmax] = -1
    return plan


class OraclePolicy(SizingPolicy):
    """Per-request exhaustive-optimal allocation (clairvoyant)."""

    late_binding = True
    name = "Optimal"

    def __init__(self, workflow: Workflow, slo_ms: Milliseconds | None = None) -> None:
        self.workflow = workflow
        self.stage_order = tuple(workflow.chain)
        self.slo_ms = float(slo_ms if slo_ms is not None else workflow.slo_ms)
        self._plan: dict[int, list[Millicores]] = {}
        self._queue: dict[int, WorkflowRequest] = {}
        self._k_grid = workflow.limits.grid()

    # ------------------------------------------------------------------
    def _durations(self, requests: list[WorkflowRequest]) -> np.ndarray:
        """``int64[N, R, K]``: ceil of actual stage time per allocation."""
        # (R, 1) columns against the (K,) grid: each request's factors are
        # computed once per stage, not once per size.
        block = RequestBlock.of(requests)
        stages = []
        for fname in self.workflow.chain:
            times = self.workflow.model(fname).execution_times(
                self._k_grid,
                *(column[:, None] for column in block.dynamics(fname)),
                block.concurrencies[:, None],
            )
            stages.append(np.ceil(times).astype(np.int64))
        return np.stack(stages)

    def _solve_queued(self) -> None:
        queued = list(self._queue.values())
        tmax = int(self.slo_ms)
        for lo in range(0, len(queued), _SOLVE_BLOCK):
            block = queued[lo : lo + _SOLVE_BLOCK]
            # An infeasible row's -1 indices pick Kmax, the grid's last size.
            sizes = self._k_grid[solve_plans(self._durations(block), tmax)]
            self._plan.update(zip((r.request_id for r in block), sizes.tolist()))
        self._queue.clear()

    def _size(self, request: WorkflowRequest, stage_index: int) -> Millicores:
        if self._queue:
            self._solve_queued()
        plan = self._plan.get(request.request_id)
        if plan is None:
            raise PolicyError(
                f"Oracle: begin_request not called for request {request.request_id}"
            )
        if not 0 <= stage_index < len(plan):
            raise PolicyError(f"Oracle: stage {stage_index} out of range")
        return plan[stage_index]

    # -- policy interface ------------------------------------------------
    def begin_request(self, request: WorkflowRequest) -> None:
        self._plan.pop(request.request_id, None)
        self._queue[request.request_id] = request

    def size_for_stage(
        self,
        stage_index: int,
        request: WorkflowRequest,
        elapsed_ms: Milliseconds,
    ) -> Millicores:
        return self._size(request, stage_index)

    def sizes_for_node(
        self,
        node: str,
        requests: _t.Sequence[WorkflowRequest],
        elapsed_ms: np.ndarray,
    ) -> np.ndarray:
        stage_index = self._stage_index(node)
        sizes = (self._size(request, stage_index) for request in requests)
        return np.fromiter(sizes, dtype=np.int64, count=len(requests))

    def end_request(self, request: WorkflowRequest) -> None:
        self._queue.pop(request.request_id, None)
        self._plan.pop(request.request_id, None)
