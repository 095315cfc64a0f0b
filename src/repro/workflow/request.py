"""Per-request execution state, request streams as columns plus rows
(:class:`RequestBlock`), and outcome records."""

from __future__ import annotations

import operator
import typing as _t
from dataclasses import dataclass, field, fields

import numpy as np

from ..errors import WorkflowError
from ..functions.model import InvocationDynamics
from ..types import Millicores, Milliseconds

__all__ = [
    "StageRecord", "WorkflowRequest", "RequestBlock", "RequestOutcome",
    "DEFAULT_STREAM_CHUNK",
]

#: Requests per chunk where a stream is drawn or served a chunk at a time:
#: amortises vector dispatch, keeps memory O(1) in the stream length.
DEFAULT_STREAM_CHUNK = 2048


@dataclass(frozen=True)
class StageRecord:
    """What happened in one stage of one request."""

    function: str
    size: Millicores
    start_ms: Milliseconds
    end_ms: Milliseconds
    cold_start_ms: Milliseconds = 0.0

    def __post_init__(self) -> None:
        if self.end_ms < self.start_ms:
            raise WorkflowError(
                f"stage {self.function}: end {self.end_ms} < start {self.start_ms}"
            )

    @property
    def execution_ms(self) -> Milliseconds:
        """Wall-clock stage duration (includes any cold start)."""
        return self.end_ms - self.start_ms


@dataclass
class WorkflowRequest:
    """One triggering event of a workflow, with its pre-drawn dynamics.

    The per-stage :class:`InvocationDynamics` are sampled when the request is
    created so that every sizing policy replays identical randomness (common
    random numbers) and the Optimal oracle can evaluate counterfactual
    allocations.
    """

    request_id: int
    arrival_ms: Milliseconds
    slo_ms: Milliseconds
    stage_dynamics: dict[str, InvocationDynamics]
    concurrency: int = 1
    #: Name of the workflow this request triggers. Informational (empty
    #: for hand-built requests): executors resolve stages through their
    #: own workflow, but recording a stream back out as a trace
    #: (:func:`repro.traces.trace_file.trace_from_requests`) needs the
    #: attribution — especially for merged multi-tenant/multi-workflow
    #: streams.
    workflow: str = ""

    def __post_init__(self) -> None:
        if self.slo_ms <= 0:
            raise WorkflowError(f"SLO must be > 0, got {self.slo_ms}")
        if self.concurrency < 1:
            raise WorkflowError(f"concurrency must be >= 1, got {self.concurrency}")
        if not self.stage_dynamics:
            raise WorkflowError("request must carry dynamics for >= 1 stage")

    def dynamics_for(self, function: str) -> InvocationDynamics:
        """Dynamics of ``function`` for this request."""
        try:
            return self.stage_dynamics[function]
        except KeyError:
            raise WorkflowError(
                f"request {self.request_id} has no dynamics for {function!r}"
            )


#: A row's fields after ``request_id``, in declaration order.
_ROW_VALUES = operator.attrgetter(*(f.name for f in fields(WorkflowRequest)[1:]))

_DYNAMICS = [operator.attrgetter(a) for a in ("workset", "noise_z", "interference")]

#: (block column, row attribute, dtype) of the per-request columns.
_COLUMNS = (
    ("request_ids", "request_id", np.int64),
    ("arrivals", "arrival_ms", np.float64),
    ("slos", "slo_ms", np.float64),
    ("concurrencies", "concurrency", np.int64),
)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class RequestBlock(_t.Sequence[WorkflowRequest]):
    """An immutable request stream: its columns next to its rows.

    Batched consumers (the analytic executors, the tenant and fleet
    merges) read the read-only columns ``request_ids``, ``arrivals``,
    ``slos``, ``concurrencies`` and, per node, :meth:`dynamics`; policy
    hooks, the DES cluster and serving read the (shared) rows. :meth:`of`
    gathers a row sequence's columns once; :meth:`merged` and :meth:`take`
    renumber rows of other blocks, built only when read. Slices, ``==``
    and ``+`` work on the rows, as with lists.
    """

    def __init__(
        self,
        rows: _t.Iterable[WorkflowRequest] | None,
        parts: tuple["RequestBlock", ...] = (),
        picks: np.ndarray | None = None,
    ) -> None:
        # Rows, or positions ``picks`` into the concatenated ``parts``.
        self._rows = None if rows is None else list(rows)
        self._parts, self._picks = parts, picks
        self._dynamics: dict[str, tuple[np.ndarray, ...]] = {}
        for name, attr, dtype in _COLUMNS:
            if self._rows is not None:
                values = map(operator.attrgetter(attr), self._rows)
                column = np.fromiter(values, dtype, len(self._rows))
            elif name == "request_ids":
                column = np.arange(picks.size, dtype=dtype)
            else:
                column = self._pick([getattr(p, name) for p in parts])
            setattr(self, name, _frozen(column))

    @classmethod
    def of(cls, requests: _t.Iterable[WorkflowRequest]) -> "RequestBlock":
        """A block as-is; any other rows kept, their columns gathered once."""
        return requests if isinstance(requests, RequestBlock) else cls(requests)

    @classmethod
    def merged(
        cls, blocks: _t.Sequence["RequestBlock"], order: _t.Sequence[int]
    ) -> "RequestBlock":
        """Rows of the concatenated ``blocks`` at positions ``order``,
        renumbered ``0..len(order)-1``."""
        return cls(None, tuple(blocks), np.asarray(order, np.int64))

    def take(self, indices: _t.Sequence[int]) -> "RequestBlock":
        """The rows at ``indices``, renumbered from 0."""
        return RequestBlock.merged((self,), indices)

    def _pick(self, columns: list[np.ndarray]) -> np.ndarray:
        flat = columns[0] if len(columns) == 1 else np.concatenate(columns)
        return flat[self._picks]

    def dynamics(self, node: str) -> tuple[np.ndarray, ...]:
        """``node``'s (worksets, noise_zs, interferences) columns; raises
        :class:`WorkflowError` naming a request without dynamics for it."""
        if node not in self._dynamics:
            if self._rows is None:
                parts = zip(*(p.dynamics(node) for p in self._parts))
                columns = [self._pick(list(c)) for c in parts]
            else:
                dyns = [r.dynamics_for(node) for r in self._rows]
                n = len(dyns)
                columns = [np.fromiter(map(g, dyns), np.float64, n) for g in _DYNAMICS]
            self._dynamics[node] = tuple(map(_frozen, columns))
        return self._dynamics[node]

    def _row_list(self) -> list[WorkflowRequest]:
        if self._rows is None:
            source = [row for part in self._parts for row in part]
            picked = map(source.__getitem__, self._picks.tolist())
            columns = zip(*map(_ROW_VALUES, picked))
            self._rows = list(map(WorkflowRequest, range(len(self)), *columns))
        return self._rows

    def __len__(self) -> int:
        return int(self.arrivals.size)

    def __iter__(self) -> _t.Iterator[WorkflowRequest]:
        return iter(self._row_list())

    def __getitem__(self, index):
        # A slice is a list of its rows, ids kept, as a list slice is.
        return self._row_list()[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (RequestBlock, list)):
            return list(self) == list(other)
        return NotImplemented

    def __add__(self, other: object) -> list[WorkflowRequest]:
        if isinstance(other, (RequestBlock, list)):
            return list(self) + list(other)
        return NotImplemented

    def __radd__(self, other: object) -> list[WorkflowRequest]:
        if isinstance(other, list):
            return other + list(self)
        return NotImplemented


@dataclass
class RequestOutcome:
    """Completed request: timings, allocations and SLO verdict."""

    request_id: int
    arrival_ms: Milliseconds
    slo_ms: Milliseconds
    stages: list[StageRecord] = field(default_factory=list)

    @property
    def e2e_ms(self) -> Milliseconds:
        """End-to-end latency from arrival to last stage completion."""
        if not self.stages:
            return 0.0
        return self.stages[-1].end_ms - self.arrival_ms

    @property
    def slo_met(self) -> bool:
        """True when the end-to-end latency is within the SLO."""
        return self.e2e_ms <= self.slo_ms

    @property
    def slack(self) -> float:
        """Paper §II-A: ``1 - l / T`` (can be negative on violation)."""
        return 1.0 - self.e2e_ms / self.slo_ms

    @property
    def allocated_millicores(self) -> Millicores:
        """Sum of per-stage allocations — the paper's CPU consumption metric."""
        return int(sum(s.size for s in self.stages))

    @property
    def millicore_ms(self) -> float:
        """Resource-time product (millicore-milliseconds) across stages."""
        return float(sum(s.size * s.execution_ms for s in self.stages))

    def sizes(self) -> list[Millicores]:
        """Per-stage allocations in execution order."""
        return [s.size for s in self.stages]

    def stage_map(self) -> dict[str, StageRecord]:
        """Stage records keyed by function name."""
        return {s.function: s for s in self.stages}
