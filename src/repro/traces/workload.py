"""Workload builders: request streams with pre-drawn dynamics.

Requests carry their per-stage :class:`InvocationDynamics` so that all
policies replay identical randomness (common random numbers) — the paper's
evaluation likewise serves the same 1000 requests to every system.
"""

from __future__ import annotations

import itertools
import math
import typing as _t
from dataclasses import dataclass

import numpy as np

from ..errors import ReproError, TraceError
from ..functions.model import FunctionModel, check_dynamics
from ..knobs import (
    FINITE, FRACTION, NON_NEGATIVE, POSITIVE, UNIT, at_least, check, knob,
)
from ..rng import RngFactory
from ..types import Milliseconds
from ..workflow.catalog import Workflow
from ..workflow.request import DEFAULT_STREAM_CHUNK, Dynamics, RequestBlock
from .arrivals import arrival_chunks, first_n
from .diurnal import STORM_MULTIPLIER, DiurnalRate, FlashCrowdRate, RateCurve

__all__ = [
    "ArrivalSpec",
    "WorkloadConfig",
    "check_workset_scale",
    "draw_dynamics",
    "dynamics_streams",
    "generate_requests",
    "iter_requests",
]

InterferenceDraw = _t.Callable[[np.random.Generator], float]

#: The numeric fields each arrival process consumes (the ones checked).
_DIURNAL = ("rate_per_s", "amplitude", "period_s", "phase")
_KIND_FIELDS = {
    "constant": ("interval_ms",), "poisson": ("rate_per_s",),
    "burst": ("rate_per_s", "burst_rate_per_s", "burst_fraction"),
    "azure": ("rate_per_s", "sigma"), "diurnal": _DIURNAL, "replay": (),
    "storm": _DIURNAL + ("storm_multiplier", "storm_fraction"),
}

#: Arrival processes an :class:`ArrivalSpec` can name.
ARRIVAL_KINDS = tuple(_KIND_FIELDS)


@dataclass(frozen=True)
class ArrivalSpec:
    """Declarative arrival process — picklable, hashable, seed-free.

    The spec carries only the process *shape*; randomness comes from the
    generator passed to :meth:`timestamps` or :meth:`stream`, so the same
    spec replays identically under a derived per-scenario RNG (the
    contract the sweep engine's bit-reproducibility rests on).

    ``kind`` is one of ``constant`` (fixed ``interval_ms`` spacing),
    ``poisson`` (exponential gaps at ``rate_per_s``), ``burst`` (two-phase
    Poisson mixing ``rate_per_s`` with ``burst_rate_per_s`` at
    ``burst_fraction``), ``azure`` (heavy-tailed lognormal gaps with
    log-std ``sigma`` replaying the Azure-trace shape), ``diurnal`` (a
    non-homogeneous Poisson process on a sinusoidal day/night rate curve:
    mean ``rate_per_s``, relative swing ``amplitude``, cycle ``period_s``),
    ``replay`` (arrivals read verbatim from the trace file at
    ``trace`` — the one kind that consumes no randomness), or ``storm``
    (a flash crowd: the diurnal curve with its rate multiplied by
    ``storm_multiplier`` during ``storm_fraction`` of every period,
    centred on the peak — the cold-start-storm scenario; ``amplitude = 0``
    storms a flat Poisson base).
    """

    kind: str = "constant"
    rate_per_s: float = knob(POSITIVE, 10.0)
    interval_ms: float = knob(NON_NEGATIVE, 0.0)
    burst_rate_per_s: float | None = knob(POSITIVE.or_none, None)
    burst_fraction: float = knob(UNIT, 0.1)
    sigma: float = knob(NON_NEGATIVE, 1.5)
    #: Diurnal shape: relative swing in [0, 1] (1 dips to zero at the
    #: trough), the cycle length in seconds, and the phase offset in
    #: radians (fleet regions shift their local busy hour with it; 0 for
    #: every pre-fleet spec, and folded into labels/digests only when
    #: nonzero so existing seeds and cache keys are untouched).
    amplitude: float = knob(UNIT, 0.6)
    period_s: float = knob(POSITIVE, 60.0)
    phase: float = knob(FINITE, 0.0)
    #: Replay source: path to a trace file readable by
    #: :func:`~repro.traces.trace_file.load_trace`. The file is read at
    #: draw time (and memoised per content), so workers replay whatever
    #: the file holds when the cell runs.
    trace: str | None = None
    #: Flash-crowd shape (storm kind): rate multiplier inside the storm
    #: window and the window's width as a fraction of the period.
    storm_multiplier: float = knob(STORM_MULTIPLIER, 6.0)
    storm_fraction: float = knob(FRACTION, 0.15)

    def __post_init__(self) -> None:
        if self.kind not in ARRIVAL_KINDS:
            raise TraceError(
                f"unknown arrival kind {self.kind!r}; known: {ARRIVAL_KINDS}"
            )
        # Shape parameters are validated here — not first at draw time — so
        # a bad spec fails when the matrix is built, not mid-sweep inside a
        # pool worker after the profiling campaign already ran. Only the
        # fields the kind actually consumes are checked.
        check(self, TraceError, _KIND_FIELDS[self.kind])
        if self.kind in ("poisson", "burst", "azure"):
            _check_rate("rate_per_s", self.rate_per_s)
        if self.kind == "burst":
            _check_rate(
                "rate_per_s" if self.burst_rate_per_s is None
                else "burst_rate_per_s",
                self.effective_burst_rate, "burst rate",
            )
        if self.kind == "replay" and not self.trace:
            raise TraceError(
                "replay arrivals require trace=<path to a trace file>"
            )
        if self.kind in ("diurnal", "storm"):
            # The curve's peak is the thinning envelope.
            _check_rate("rate_per_s", self.rate_curve().peak_rate, "peak rate")

    @property
    def effective_burst_rate(self) -> float:
        """The burst phase's rate: ``burst_rate_per_s``, else 10x the base."""
        if self.burst_rate_per_s is not None:
            return self.burst_rate_per_s
        return 10.0 * self.rate_per_s

    def rate_curve(self) -> RateCurve:
        """The rate curve a diurnal or storm spec thins."""
        curve = DiurnalRate.sinusoid(
            self.rate_per_s, self.amplitude, self.period_s, self.phase
        )
        if self.kind == "storm":
            return FlashCrowdRate(
                curve, self.storm_multiplier, self.storm_fraction
            )
        return curve

    @property
    def label(self) -> str:
        """Stable human-readable identifier (also used for seed derivation)."""
        if self.kind == "constant":
            return f"constant@{self.interval_ms:g}ms"
        if self.kind == "poisson":
            return f"poisson@{self.rate_per_s:g}/s"
        if self.kind == "burst":
            return (
                f"burst@{self.rate_per_s:g}/s+{self.effective_burst_rate:g}/s"
                f"@{self.burst_fraction:g}"
            )
        if self.kind == "diurnal":
            return (
                f"diurnal@{self.rate_per_s:g}/s~{self.amplitude:g}"
                f"x{self.period_s:g}s" + self._phase_suffix
            )
        if self.kind == "replay":
            # The path as given, not its content digest: the label keys
            # seed derivation and cell identifiers, and an edited trace
            # must keep the cell's dynamics streams (common random
            # numbers) while the cache key — which folds the content
            # digest in separately — goes cold.
            return f"replay@{self.trace}"
        if self.kind == "storm":
            return (
                f"storm@{self.rate_per_s:g}/s"
                f"x{self.storm_multiplier:g}@{self.storm_fraction:g}"
                f"~{self.amplitude:g}x{self.period_s:g}s" + self._phase_suffix
            )
        return f"azure@{self.rate_per_s:g}/s~{self.sigma:g}"

    @property
    def _phase_suffix(self) -> str:
        # Empty at phase 0 so every pre-fleet label (and the seeds derived
        # from it) is byte-for-byte what it always was.
        return f"+{self.phase:g}rad" if self.phase != 0.0 else ""

    def timestamps(
        self,
        n: int,
        rng: np.random.Generator,
        workflow: str | None = None,
    ) -> np.ndarray:
        """``n`` arrival timestamps (ms) drawn from this process.

        ``workflow`` only matters for ``replay`` specs: a trace carrying
        per-record workflow attribution replays the named workflow's
        sub-stream (its share of the recorded popularity mix), an
        unattributed trace replays the full stream.
        """
        return first_n(arrival_chunks(self, rng, n, workflow), n)

    def stream(
        self, rng: np.random.Generator, workflow: str | None = None
    ) -> _t.Iterator[float]:
        """This process unbounded, as Python floats (ms), drawn in fixed
        chunks so a seed replays it however far it is read."""
        for chunk in arrival_chunks(self, rng, workflow=workflow):
            yield from chunk.tolist()


def _check_rate(knob: str, rate_per_s: float, what: str = "rate") -> None:
    # Finite knobs can still overflow a rate or its mean gap, which would
    # hang the sampler or yield inf/nan arrivals.
    if not (rate_per_s < math.inf and 1000.0 / rate_per_s < math.inf):
        raise TraceError(
            f"ArrivalSpec.{knob} gives a {what} of {rate_per_s:g}/s; it and "
            f"its mean gap 1000/{what} ms must both be finite"
        )


@dataclass(eq=False)
class WorkloadConfig:
    """Parameters of a request stream.

    ``interference`` optionally draws a per-stage slowdown factor (>= 1),
    modelling co-location effects in the trace-driven (analytic) backend;
    the cluster backend derives interference from actual co-location instead.
    ``workset_scale`` multiplies every drawn working set — used to shift the
    runtime distribution away from the profiled one (the hints-regeneration
    experiment).
    """

    n_requests: int = knob(at_least(1), 1000)
    arrival_rate_per_s: float | None = knob(POSITIVE.or_none, None)
    interference: InterferenceDraw | None = None
    workset_scale: float = knob(POSITIVE, 1.0)
    slo_ms: Milliseconds | None = knob(POSITIVE.or_none, None)
    concurrency: int | None = knob(at_least(1).or_none, None)
    arrival: ArrivalSpec | None = None

    def __post_init__(self) -> None:
        if isinstance(self.n_requests, float) and self.n_requests.is_integer():
            self.n_requests = int(self.n_requests)  # 3.0 requests are 3
        check(self, TraceError)
        if self.arrival is not None and self.arrival_rate_per_s is not None:
            raise TraceError(
                "pass either an ArrivalSpec or the legacy arrival_rate_per_s, "
                "not both"
            )
        self.n_requests = int(self.n_requests)
        self.workset_scale = float(self.workset_scale)

    def arrival_spec(self) -> ArrivalSpec:
        """The effective arrival process (legacy rate maps to Poisson)."""
        if self.arrival is not None:
            return self.arrival
        if self.arrival_rate_per_s is not None:
            return ArrivalSpec(kind="poisson", rate_per_s=self.arrival_rate_per_s)
        return ArrivalSpec(kind="constant", interval_ms=0.0)


def iter_requests(
    workflow: Workflow,
    config: WorkloadConfig | None = None,
    seed: int = 0,
) -> _t.Iterator[RequestBlock]:
    """Yield the deterministic request stream as column blocks of
    :data:`DEFAULT_STREAM_CHUNK` requests (the last one shorter).

    Each block's dynamics come from one :func:`draw_dynamics` call (the
    values do not depend on the chunk size) and are checked as rows would
    check them; arrivals are drawn in one batch (O(n) floats, the cheap
    part). A block builds its rows only if they are read, and streaming
    consumers never hold the full stream.
    """
    cfg = config or WorkloadConfig()
    check_workset_scale(workflow, cfg.workset_scale, _WORKSET_SCALE)
    factory = RngFactory(seed).fork("workload", workflow.name)
    arrivals = cfg.arrival_spec().timestamps(
        cfg.n_requests, factory.stream("arrivals"), workflow=workflow.name
    )
    slo = float(cfg.slo_ms if cfg.slo_ms is not None else workflow.slo_ms)
    concurrency = int(
        cfg.concurrency if cfg.concurrency is not None else workflow.max_concurrency
    )
    stages = dynamics_streams(workflow, factory)
    interference = None
    if cfg.interference is not None:
        interference = (cfg.interference, factory.stream("interference"))
    for lo in range(0, cfg.n_requests, DEFAULT_STREAM_CHUNK):
        m = min(DEFAULT_STREAM_CHUNK, cfg.n_requests - lo)
        dynamics = draw_dynamics(stages, m, cfg.workset_scale, interference)
        worksets, _, interferences = map(np.column_stack, zip(*dynamics.values()))
        check_dynamics(worksets, interferences)
        # ``fill``, not ``np.full``: every row shares the one name object.
        workflows = np.empty(m, dtype=object)
        workflows.fill(workflow.name)
        yield RequestBlock(
            np.arange(lo, lo + m),
            arrivals[lo : lo + m],
            np.full(m, slo),
            np.full(m, concurrency),
            workflows,
            dynamics,
        )


#: One workflow node's dynamics source: its name, its model, and its
#: workset and noise streams.
Stage = tuple[str, FunctionModel, np.random.Generator, np.random.Generator]

#: The knob a working-set scale came from: its label and its config
#: class's error.
ScaleKnob = tuple[str, type[ReproError]]

_WORKSET_SCALE: ScaleKnob = ("WorkloadConfig.workset_scale", TraceError)


def dynamics_streams(workflow: Workflow, factory: RngFactory) -> list[Stage]:
    """Every DAG node (branching workflows run off-critical-path functions
    too) with its own ``("dynamics", name, "workset")`` and
    ``("dynamics", name, "noise")`` streams of ``factory``."""
    return [
        (
            name,
            workflow.model(name),
            factory.stream("dynamics", name, "workset"),
            factory.stream("dynamics", name, "noise"),
        )
        for name in workflow.dag.nodes
    ]


def check_workset_scale(
    workflow: Workflow, scale: float, scale_knob: ScaleKnob
) -> None:
    """Raise ``scale_knob``'s error, naming it, if ``scale`` times the upper
    bound of a stage's working sets overflows a float. A stage with
    unbounded support fails the same way at the draw that overflows."""
    for name in workflow.dag.nodes:
        top = workflow.model(name).workset.support()[1]
        _check_product(scale, scale_knob, name, top)


def _check_product(
    scale: float, scale_knob: ScaleKnob, name: str, top: float
) -> None:
    if top < math.inf and not top * scale < math.inf:
        label, error = scale_knob
        raise error(
            f"{label} must keep working sets finite, got {scale:g} "
            f"(overflows {name}'s)"
        )


def draw_dynamics(
    stages: _t.Sequence[Stage],
    m: int,
    workset_scale: float = 1.0,
    interference: tuple[InterferenceDraw, np.random.Generator] | None = None,
    scale_knob: ScaleKnob = _WORKSET_SCALE,
) -> dict[str, Dynamics]:
    """Each stage's (worksets, noise_zs, interferences) columns for the
    next ``m`` requests: one ``sample_dynamics(..., size=m)`` call per
    stage, working sets times ``workset_scale`` (a product that overflows
    raises ``scale_knob``'s error), and interference from the ``(draw, rng)``
    pair per request per stage in row order, else 1.0. Scaled worksets
    and drawn interference are not checked here: a block checks its
    columns, a row itself."""
    per_stage_q: _t.Iterable[np.ndarray | None] = itertools.repeat(None)
    if interference is not None:
        draw, rng = interference
        q = [float(draw(rng)) for _ in range(m * len(stages))]
        per_stage_q = np.array(q).reshape(m, len(stages)).T.copy()
    columns = {}
    for (name, model, workset_rng, noise_rng), qs in zip(stages, per_stage_q):
        worksets, noise_zs, ones = model.sample_dynamics(workset_rng, noise_rng, size=m)
        if workset_scale != 1.0:
            top = float(np.abs(worksets).max())
            _check_product(workset_scale, scale_knob, name, top)
            worksets = worksets * workset_scale
        columns[name] = (worksets, noise_zs, ones if qs is None else qs)
    return columns


def generate_requests(
    workflow: Workflow,
    config: WorkloadConfig | None = None,
    seed: int = 0,
) -> RequestBlock:
    """Build a deterministic request stream for ``workflow``: the blocks
    of :func:`iter_requests` joined into one, as columns."""
    chunks = list(iter_requests(workflow, config, seed))
    return RequestBlock.merged(chunks, np.arange(sum(map(len, chunks))))
