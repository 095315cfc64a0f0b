"""Per-request execution state, request streams as columns with rows
built when read (:class:`RequestBlock`), and outcome records."""

from __future__ import annotations

import operator
import typing as _t
from dataclasses import dataclass, field

import numpy as np

from ..errors import WorkflowError
from ..functions.model import InvocationDynamics
from ..types import Millicores, Milliseconds

__all__ = [
    "StageRecord", "WorkflowRequest", "RequestBlock", "RequestOutcome",
    "DEFAULT_STREAM_CHUNK", "dynamics_rows",
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


#: One node's (worksets, noise_zs, interferences) columns.
Dynamics = tuple[np.ndarray, np.ndarray, np.ndarray]

_DYNAMICS = [operator.attrgetter(a) for a in ("workset", "noise_z", "interference")]

#: (block column, row attribute, dtype) of the per-request columns, in
#: :class:`WorkflowRequest`'s field order. Workflow names are an object
#: column, so a stream's rows share one name object (as rows built from
#: one workflow do).
_COLUMNS = (
    ("request_ids", "request_id", np.int64),
    ("arrivals", "arrival_ms", np.float64),
    ("slos", "slo_ms", np.float64),
    ("concurrencies", "concurrency", np.int64),
    ("workflows", "workflow", object),
)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _picked(columns: list[np.ndarray], picks: np.ndarray) -> np.ndarray:
    flat = columns[0] if len(columns) == 1 else np.concatenate(columns)
    return flat[picks]


def dynamics_rows(
    columns: _t.Mapping[str, Dynamics],
) -> _t.Iterator[dict[str, InvocationDynamics]]:
    """Each request's stage dynamics, node by node in ``columns``' order,
    built (and checked) as read."""
    per_node = [
        map(InvocationDynamics, *(column.tolist() for column in node))
        for node in columns.values()
    ]
    return (dict(zip(columns, row)) for row in zip(*per_node))


class RequestBlock(_t.Sequence[WorkflowRequest]):
    """An immutable request stream: columns first, rows when read.

    Batched consumers (the analytic executors, the oracle's duration
    table, the tenant and fleet merges) read the read-only columns
    ``request_ids``, ``arrivals``, ``slos``, ``concurrencies``,
    ``workflows`` and, per node, :meth:`dynamics`; policy hooks, the DES
    cluster and serving read rows. A block built from columns (a drawn
    chunk, :meth:`merged`, :meth:`take`) builds its rows once, the first
    time one is indexed or iterated; :meth:`of` gathers a row sequence's
    columns once and keeps its rows. Slices, ``==`` and ``+`` work on the
    rows, as with lists.
    """

    def __init__(
        self,
        request_ids: np.ndarray,
        arrivals: np.ndarray,
        slos: np.ndarray,
        concurrencies: np.ndarray,
        workflows: np.ndarray,
        dynamics: _t.Mapping[str, Dynamics],
    ) -> None:
        """A block of columns; ``dynamics`` maps each node, in stage
        order, to its (worksets, noise_zs, interferences)."""
        values = (request_ids, arrivals, slos, concurrencies, workflows)
        for (name, _, dtype), column in zip(_COLUMNS, values):
            setattr(self, name, _frozen(np.asarray(column, dtype)))
        self._dynamics = {
            node: tuple(map(_frozen, columns))
            for node, columns in dynamics.items()
        }
        #: The nodes every row carries dynamics for, in stage order.
        self.nodes = tuple(self._dynamics)
        self._rows: list[WorkflowRequest] | None = None
        # Positions ``_picks`` into the concatenated ``_parts``: where a
        # merged block gathers a node's dynamics when first read.
        self._parts: tuple[RequestBlock, ...] = ()
        self._picks: np.ndarray | None = None

    @classmethod
    def of(cls, requests: _t.Iterable[WorkflowRequest]) -> "RequestBlock":
        """A block as-is; any other rows kept, their columns gathered once."""
        if isinstance(requests, RequestBlock):
            return requests
        rows = list(requests)
        block = cls(*(
            np.fromiter(map(operator.attrgetter(attr), rows), dtype, len(rows))
            for _, attr, dtype in _COLUMNS
        ), {})
        block.nodes = tuple(rows[0].stage_dynamics) if rows else ()
        block._rows = rows
        return block

    @classmethod
    def merged(
        cls, blocks: _t.Sequence["RequestBlock"], order: _t.Sequence[int]
    ) -> "RequestBlock":
        """Requests of the concatenated ``blocks`` at positions ``order``,
        renumbered ``0..len(order)-1``."""
        picks = np.asarray(order, np.int64)
        block = cls(np.arange(picks.size), *(
            _picked([getattr(b, name) for b in blocks], picks)
            for name, _, _ in _COLUMNS[1:]
        ), {})
        block.nodes = blocks[0].nodes if blocks else ()
        block._parts, block._picks = tuple(blocks), picks
        return block

    def take(self, indices: _t.Sequence[int]) -> "RequestBlock":
        """The requests at ``indices``, renumbered from 0."""
        return RequestBlock.merged((self,), indices)

    def dynamics(self, node: str) -> Dynamics:
        """``node``'s (worksets, noise_zs, interferences) columns; raises
        :class:`WorkflowError` naming a request without dynamics for it."""
        if node not in self._dynamics:
            if self._parts:
                parts = zip(*(p.dynamics(node) for p in self._parts))
                columns = [_picked(list(c), self._picks) for c in parts]
            else:
                # Rows given to :meth:`of`; a drawn block has no such node,
                # so its first row names itself in the error.
                dyns = [r.dynamics_for(node) for r in self._row_list()]
                n = len(dyns)
                columns = [np.fromiter(map(g, dyns), np.float64, n) for g in _DYNAMICS]
            self._dynamics[node] = tuple(map(_frozen, columns))
        return self._dynamics[node]

    def _row_list(self) -> list[WorkflowRequest]:
        if self._rows is None:
            stages = dynamics_rows({n: self.dynamics(n) for n in self.nodes})
            self._rows = list(map(
                WorkflowRequest,
                self.request_ids.tolist(),
                self.arrivals.tolist(),
                self.slos.tolist(),
                stages,
                self.concurrencies.tolist(),
                self.workflows.tolist(),
            ))
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
