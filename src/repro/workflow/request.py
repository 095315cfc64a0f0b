"""Per-request execution state and outcome records."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import WorkflowError
from ..functions.model import InvocationDynamics
from ..types import Millicores, Milliseconds

__all__ = ["StageRecord", "WorkflowRequest", "RequestOutcome"]


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
