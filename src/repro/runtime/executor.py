"""Trace-driven (analytic) execution: the one sizing walk.

Serves a request stream against a workflow under a sizing policy. Every
request's stage randomness was drawn when the stream was generated, so the
backend is deterministic given (workflow, requests) and every policy sees
identical dynamics — the apples-to-apples comparison the paper's evaluation
relies on. Latency is modelled exactly and resource consumption as the
per-stage allocations; queueing and co-location are the DES cluster
backend's domain (:mod:`repro.cluster`).

Both analytic executors replay one graph: a node starts when its last
predecessor ends (sources at arrival), is sized from the time elapsed by
then — what a provider-side adapter knows — and ends ``exec_ms`` later.
``"analytic"`` serves :attr:`~repro.workflow.catalog.Workflow.chain` as a
path graph, ``"dag"`` the whole DAG. The walk comes in two forms: the
batched core (``run``, ``run_streaming``) evaluates each node across a
batch with one vectorised policy lookup
(:meth:`~repro.policies.base.SizingPolicy.sizes_for_node`) and one array
latency-model call into :class:`~repro.runtime.results.OutcomeColumns`;
the scalar ``walk`` yields one request's stages one at a time —
``run_request`` collects them (the reference the batched core is pinned
to, bit for bit, in ``tests/test_vector_exec.py``) and the serving loop
awaits between them.
"""

from __future__ import annotations

import functools
import itertools
import typing as _t

import numpy as np

from ..errors import ExperimentError
from ..metrics.streaming import StreamingMoments, StreamingSummary
from ..policies.base import SizingPolicy
from ..workflow.catalog import Workflow
from ..workflow.request import DEFAULT_STREAM_CHUNK, RequestBlock
from ..workflow.request import RequestOutcome, StageRecord, WorkflowRequest
from .registry import register_executor
from .results import (
    OutcomeColumns,
    RunResult,
    StreamingRunResult,
    collect_policy_extras,
)

__all__ = ["AnalyticExecutor", "DEFAULT_STREAM_CHUNK"]


def _off_grid(policy: SizingPolicy, size: int, fname: str) -> ExperimentError:
    return ExperimentError(
        f"{policy.name}: size {size} off-grid for stage {fname}"
    )


def _run_hooks(
    policy: SizingPolicy,
    requests: _t.Sequence[WorkflowRequest],
    hook: str,
) -> None:
    """Fire begin/end hooks for a batch, skipping un-overridden no-ops."""
    if getattr(type(policy), hook) is getattr(SizingPolicy, hook):
        return
    bound = getattr(policy, hook)
    for request in requests:
        bound(request)


#: The graph an executor replays: node names in execution order and, per
#: node, the positions of its predecessors among them.
Graph = tuple[tuple[str, ...], tuple[tuple[int, ...], ...]]


class _GraphExecutor:
    """Shared body of the analytic executors: both walks over the graph
    each public subclass derives from its workflow (``_served_graph``)."""

    def __init__(self, workflow: Workflow, clamp_sizes: bool = True) -> None:
        self.workflow = workflow
        self.clamp_sizes = bool(clamp_sizes)
        self.nodes, self.preds = self._served_graph(workflow)
        # On a path, execution order is completion order.
        self._is_path = all(
            pred == ((j - 1,) if j else ())
            for j, pred in enumerate(self.preds)
        )

    # -- scalar walk -------------------------------------------------------
    def walk(
        self,
        policy: SizingPolicy,
        request: WorkflowRequest,
        origin_ms: float,
    ) -> _t.Iterator[tuple[StageRecord, float]]:
        """One request's stages in execution order, as ``(record,
        exec_ms)`` pairs produced one at a time.

        Stage times count from ``origin_ms`` (the arrival, or ``arrival +
        rtt`` for a remote-routed request in the serving loop) while
        sizing sees only the elapsed offset. Assumes the policy is bound;
        its begin/end hooks bracket the walk.
        """
        limits = self.workflow.limits
        policy.begin_request(request)
        end_offsets: list[float] = []
        for fname, pred in zip(self.nodes, self.preds):
            offset = max((end_offsets[p] for p in pred), default=0.0)
            size = policy.size_for_node(fname, request, offset)
            if self.clamp_sizes:
                size = limits.clamp(size)
            elif not limits.contains(size):
                raise _off_grid(policy, size, fname)
            exec_ms = self.workflow.model(fname).execution_time(
                size, request.dynamics_for(fname), request.concurrency
            )
            start = origin_ms + offset
            yield StageRecord(
                function=fname, size=size, start_ms=start,
                end_ms=start + exec_ms,
            ), exec_ms
            end_offsets.append(offset + exec_ms)
        policy.end_request(request)

    def run_request(
        self, policy: SizingPolicy, request: WorkflowRequest
    ) -> RequestOutcome:
        """Serve one request; returns its outcome (stages sorted by end).

        The scalar reference the batched core is pinned against, and the
        entry point for one-off serving and direct tests.
        """
        policy.bind(self.workflow)
        walk = self.walk(policy, request, request.arrival_ms)
        stages = sorted((record for record, _ in walk), key=lambda s: s.end_ms)
        return RequestOutcome(
            request_id=request.request_id,
            arrival_ms=request.arrival_ms,
            slo_ms=request.slo_ms,
            stages=stages,
        )

    # -- batched core ------------------------------------------------------
    def _replay(
        self, policy: SizingPolicy, requests: _t.Sequence[WorkflowRequest]
    ) -> OutcomeColumns:
        """Serve a batch node by node, each node across every request.

        Assumes the policy is bound; reads the batch's
        :class:`RequestBlock` columns. Stage columns follow execution order;
        on a non-path graph ``order`` is the per-request stable argsort of
        completion times, matching :meth:`run_request`'s stable sort.
        """
        limits = self.workflow.limits
        requests = RequestBlock.of(requests)
        shape = (len(requests), len(self.nodes))
        _run_hooks(policy, requests, "begin_request")
        arrivals, concurrencies = requests.arrivals, requests.concurrencies
        sizes = np.empty(shape, dtype=np.int64)
        starts = np.empty(shape, dtype=np.float64)
        ends = np.empty(shape, dtype=np.float64)
        end_offsets: list[np.ndarray] = []
        for j, (fname, pred) in enumerate(zip(self.nodes, self.preds)):
            if pred:
                offset = functools.reduce(
                    np.maximum, [end_offsets[p] for p in pred]
                )
            else:
                offset = np.zeros(len(requests), dtype=np.float64)
            ks = np.asarray(
                policy.sizes_for_node(fname, requests, offset), dtype=np.int64
            )
            if self.clamp_sizes:
                ks = limits.clamp_array(ks)
            else:
                on_grid = limits.contains_array(ks)
                if not bool(on_grid.all()):
                    bad = int(ks[np.flatnonzero(~on_grid)[0]])
                    raise _off_grid(policy, bad, fname)
            worksets, noise_zs, interferences = requests.dynamics(fname)
            exec_ms = self.workflow.model(fname).execution_times(
                ks, worksets, noise_zs, interferences, concurrencies
            )
            start = arrivals + offset
            sizes[:, j] = ks
            starts[:, j] = start
            ends[:, j] = start + exec_ms
            end_offsets.append(offset + exec_ms)
        _run_hooks(policy, requests, "end_request")
        return OutcomeColumns(
            request_ids=requests.request_ids,
            arrivals=arrivals,
            slos=requests.slos,
            functions=self.nodes,
            sizes=sizes,
            starts=starts,
            ends=ends,
            order=(
                None if self._is_path
                else np.argsort(ends, axis=1, kind="stable")
            ),
        )

    def _run(
        self, policy: SizingPolicy, requests: _t.Sequence[WorkflowRequest]
    ) -> RunResult:
        if not requests:
            raise ExperimentError("request stream is empty")
        policy.bind(self.workflow)
        return RunResult(
            policy.name,
            columns=self._replay(policy, requests),
            extras=collect_policy_extras(policy),
        )

    def run_streaming(
        self,
        policy: SizingPolicy,
        requests: _t.Iterable[WorkflowRequest],
        chunk_size: int = DEFAULT_STREAM_CHUNK,
    ) -> StreamingRunResult:
        """Serve a stream folding each outcome into streaming estimators.

        The bounded-memory path for very large ``n_requests``: requests are
        served in fixed-size chunks through the batched core (O(chunk)
        memory, vector throughput) and only the streaming aggregates
        survive. Estimators consume per-request values in arrival order, so
        the result is bit-identical to the per-request scalar fold. Latency
        percentiles in the result are P² estimates (see
        :mod:`repro.metrics.streaming`).
        """
        if chunk_size < 1:
            raise ExperimentError(f"chunk_size must be >= 1, got {chunk_size}")
        policy.bind(self.workflow)
        latency = StreamingSummary((50.0, 99.0))
        cost = StreamingMoments()
        slack = StreamingMoments()
        violations = 0
        n = 0
        iterator = iter(requests)
        while chunk := list(itertools.islice(iterator, chunk_size)):
            columns = self._replay(policy, chunk)
            for e2e, alloc, slk, met in zip(
                columns.e2e_ms().tolist(),
                columns.allocated().tolist(),
                columns.slacks().tolist(),
                columns.slo_met().tolist(),
            ):
                latency.add(e2e)
                cost.add(alloc)
                slack.add(slk)
                violations += not met
            n += len(chunk)
        if n == 0:
            raise ExperimentError("request stream is empty")
        return StreamingRunResult(
            policy_name=policy.name,
            n_requests=n,
            mean_allocated=cost.mean,
            p50_e2e_ms=latency.percentile(50.0),
            p99_e2e_ms=latency.percentile(99.0),
            violation_rate=violations / n,
            mean_slack=slack.mean,
            extras=collect_policy_extras(policy),
        )


@register_executor("analytic")
class AnalyticExecutor(_GraphExecutor):
    """Replays request streams along the workflow's chain.

    The auto-selected backend for chain workflows. Forced onto a branching
    workflow it serves only the critical path (:attr:`Workflow.chain`) —
    the chain approximation.
    """

    @staticmethod
    def _served_graph(workflow: Workflow) -> Graph:
        chain = tuple(workflow.chain)
        return chain, tuple((j - 1,) if j else () for j in range(len(chain)))

    def run(
        self, policy: SizingPolicy, requests: _t.Sequence[WorkflowRequest]
    ) -> RunResult:
        """Serve a whole stream and collect a :class:`RunResult`."""
        return self._run(policy, requests)
