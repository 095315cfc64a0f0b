"""Fault injection: deterministic adverse-dynamics schedules for the DES
cluster (paper Fig. 7 resilience, §II-B interference).

A :class:`FaultSpec` is a declarative, seed-free description of one adverse
dynamic — VM preemptions, a permanent VM crash, correlated stragglers,
cross-function contention, or a flash-crowd arrival storm. Cluster-side
kinds compile into an explicit, fully sorted schedule of primitive
:class:`FaultEvent` records (:func:`compile_fault_schedule`) from a derived
seed, so the same spec + seed + fleet size always yields the bit-identical
schedule regardless of which sweep backend or process evaluates the cell —
the property the chaos tests pin.

The :class:`FaultInjector` drives a compiled schedule inside a simulation:
it downs/recovers VMs (evicting parked pods, arming per-VM failure events
the serving core races against mid-invocation) and applies transient
straggler slowdowns. All bookkeeping lands in :class:`FaultStats`, which the
platform surfaces as per-policy result extras.

``storm`` is the one arrival-side kind: it does not touch the cluster at
all but rewrites the cell's arrival process into the ``"storm"``
burst-on-diurnal kind (see :func:`repro.scenarios.matrix.storm_arrival`),
so it works on analytic cells too.
"""

from __future__ import annotations

import math
import typing as _t
from dataclasses import dataclass

from ..errors import ClusterError
from ..knobs import FRACTION, NON_NEGATIVE, POSITIVE, Domain, check, knob
from ..rng import make_rng
from ..sim.engine import Simulator
from ..sim.events import Event
from ..traces.diurnal import STORM_MULTIPLIER

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from .pool import PoolManager
    from .vm import VirtualMachine

__all__ = [
    "CLUSTER_FAULT_KINDS",
    "FLEET_FAULT_KINDS",
    "FAULT_KINDS",
    "FaultSpec",
    "FaultEvent",
    "FaultStats",
    "FaultInjector",
    "RegionOutage",
    "parse_fault",
    "compile_fault_schedule",
    "compile_region_failover",
]

#: Kinds realised by the DES cluster platform (an injector is installed).
CLUSTER_FAULT_KINDS = ("preempt", "crash", "straggler", "contention")
#: Kinds realised by the multi-region fleet layer (``repro.fleet``): the
#: fault takes a whole region down and routing drains its traffic.
FLEET_FAULT_KINDS = ("region-failover",)
#: Every kind a ``faults=`` axis entry may name; ``storm`` transforms the
#: cell's arrival process instead of touching the cluster, and the fleet
#: kinds require a fleet on the cell.
FAULT_KINDS = CLUSTER_FAULT_KINDS + ("storm",) + FLEET_FAULT_KINDS

#: The numeric fields each fault kind consumes (the ones checked).
_KIND_FIELDS = {
    "preempt": ("rate_per_min", "recovery_ms"),
    "crash": ("at_ms",),
    "straggler": ("fraction", "slowdown", "duration_ms", "interval_ms"),
    "contention": ("scale",),
    "storm": ("multiplier", "window_fraction"),
    "region-failover": ("recovery_ms",),
}

#: Backoff a preempted invocation waits before re-acquiring a pod (ms).
RETRY_BACKOFF_MS = 50.0

#: The most events a schedule may expect over its horizon: the compiler
#: draws them one by one, so an astronomical horizon x rate never finishes.
MAX_EXPECTED_FAULT_EVENTS = 100_000


@dataclass(frozen=True)
class FaultSpec:
    """Declarative fault shape — picklable, hashable, seed-free.

    Like :class:`~repro.traces.workload.ArrivalSpec`, the spec carries only
    the *shape*; all randomness comes from the seed handed to
    :func:`compile_fault_schedule`, so a cell's fault schedule replays
    bit-identically under its derived seed. Only the fields the kind
    consumes are validated (and shown in :attr:`label`):

    ``preempt``
        Transient VM preemptions as a Poisson process of
        ``rate_per_min`` across the fleet; each victim is down for
        ``recovery_ms`` (busy pods are killed mid-invocation and the
        serving core retries after a backoff).
    ``crash``
        One VM permanently fails at ``at_ms``.
    ``straggler``
        Correlated slow episodes: a fixed ``fraction`` of the fleet runs
        ``slowdown`` x slower during episodes of ``duration_ms`` arriving
        with mean spacing ``interval_ms`` (all affected VMs slow
        *together* — the correlated-straggler shape).
    ``contention``
        Cross-function dominant-resource contention: busy pods of *other*
        functions sharing a VM contribute ``scale`` of a same-function
        neighbour to the interference count (see
        :meth:`~repro.cluster.interference.InterferenceModel.cross_slowdown`).
    ``storm``
        Flash crowd: the cell's arrival process gains a window around the
        diurnal peak where the rate is multiplied by ``multiplier``
        (``window_fraction`` of the period wide).
    ``region-failover``
        One whole fleet region goes dark for ``recovery_ms`` starting at a
        seed-derived time; the routing policy drains its traffic to the
        survivors (see :func:`compile_region_failover` and
        :mod:`repro.fleet`). Requires a fleet on the cell.
    """

    kind: str
    #: preempt: fleet-wide preemption rate and per-event downtime.
    rate_per_min: float = knob(POSITIVE, 2.0)
    recovery_ms: float = knob(POSITIVE, 5000.0)
    #: crash: permanent failure time.
    at_ms: float = knob(NON_NEGATIVE, 5000.0)
    #: storm: rate multiplier and window width (fraction of the period).
    multiplier: float = knob(STORM_MULTIPLIER, 6.0)
    window_fraction: float = knob(FRACTION, 0.15)
    #: straggler: affected fleet fraction, slowdown and episode shape.
    fraction: float = knob(FRACTION, 0.25)
    slowdown: float = knob(Domain(lo=1.0), 3.0)
    duration_ms: float = knob(POSITIVE, 5000.0)
    interval_ms: float = knob(POSITIVE, 20000.0)
    #: contention: weight of one busy other-function neighbour relative to
    #: a same-function one.
    scale: float = knob(NON_NEGATIVE, 0.5)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ClusterError(
                f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}"
            )
        check(self, ClusterError, _KIND_FIELDS[self.kind])

    def check_event_budget(self, horizon_ms: float) -> None:
        """Raise unless the schedule over ``horizon_ms`` expects at most
        :data:`MAX_EXPECTED_FAULT_EVENTS` events (horizon x rate)."""
        if self.kind == "preempt":
            name, expected = "rate_per_min", horizon_ms * self.rate_per_min / 60_000.0
        elif self.kind == "straggler":
            name, expected = "interval_ms", horizon_ms / self.interval_ms
        else:
            return
        if not expected <= MAX_EXPECTED_FAULT_EVENTS:
            raise ClusterError(
                f"FaultSpec.{name}={getattr(self, name)} expects {expected:.3g} "
                f"{self.kind} events over the {horizon_ms:g} ms fault horizon; "
                f"at most {MAX_EXPECTED_FAULT_EVENTS} are allowed"
            )

    @property
    def label(self) -> str:
        """Stable identifier — keys fault-seed derivation and cell IDs."""
        if self.kind == "preempt":
            return (
                f"preempt@{self.rate_per_min:g}/min"
                f"~{self.recovery_ms:g}ms"
            )
        if self.kind == "crash":
            return f"crash@{self.at_ms:g}ms"
        if self.kind == "storm":
            return f"storm@x{self.multiplier:g}~{self.window_fraction:g}"
        if self.kind == "straggler":
            return (
                f"straggler@{self.fraction:g}x{self.slowdown:g}"
                f"~{self.duration_ms:g}/{self.interval_ms:g}ms"
            )
        if self.kind == "region-failover":
            return f"region-failover@{self.recovery_ms:g}ms"
        return f"contention@{self.scale:g}"


def parse_fault(text: str) -> FaultSpec:
    """Parse a CLI fault token into a :class:`FaultSpec`.

    Grammar: ``preempt@RATE[:RECOVERY_MS]`` (preemptions/min),
    ``crash@AT_MS``, ``storm@MULT[:WINDOW_FRACTION]``,
    ``straggler@FRACTION:SLOWDOWN``, ``contention[@SCALE]`` and
    ``region-failover[@OUTAGE_MS]``. Full control over every shape field
    is available through :class:`FaultSpec` directly.
    """
    kind, _, operand = text.partition("@")
    kind = kind.strip().lower()
    if kind not in FAULT_KINDS:
        raise ClusterError(
            f"unknown fault kind {kind!r} in {text!r}; known: {FAULT_KINDS}"
        )
    first, _, second = operand.partition(":")
    try:
        a = float(first) if first.strip() else None
        b = float(second) if second.strip() else None
    except ValueError:
        raise ClusterError(f"invalid fault operand in {text!r}")
    if kind == "straggler" and (a is None or b is None):
        raise ClusterError(f"straggler wants FRACTION:SLOWDOWN, got {text!r}")
    # The operands fill the kind's first one or two fields in order.
    operands = zip(_KIND_FIELDS[kind][:2], (a, b))
    return FaultSpec(
        kind=kind, **{name: v for name, v in operands if v is not None}
    )


@dataclass(frozen=True)
class FaultEvent:
    """One primitive scheduled action against one VM.

    ``action`` is ``"down"`` / ``"up"`` (preemptions and crashes; ``cause``
    distinguishes them) or ``"slow"`` / ``"unslow"`` (straggler episodes,
    ``slowdown`` carries the factor).
    """

    at_ms: float
    vm_id: int
    action: str
    cause: str
    slowdown: float = 1.0


def compile_fault_schedule(
    spec: FaultSpec, seed: int, n_vms: int, horizon_ms: float
) -> tuple[FaultEvent, ...]:
    """Compile ``spec`` into a sorted, deterministic event schedule.

    All randomness comes from ``make_rng(seed)`` consumed in a fixed
    order, so (spec, seed, n_vms, horizon) -> schedule is a pure function:
    every sweep backend and every process compiles the identical tuple.
    Kinds without scheduled events (``contention``, ``storm``) compile to
    an empty schedule.
    """
    if n_vms < 1:
        raise ClusterError(f"need >= 1 VM, got {n_vms}")
    if horizon_ms <= 0:
        raise ClusterError(f"horizon must be > 0 ms, got {horizon_ms}")
    spec.check_event_budget(horizon_ms)
    rng = make_rng(seed)
    events: list[FaultEvent] = []
    if spec.kind == "crash":
        if spec.at_ms < horizon_ms:
            victim = int(rng.integers(n_vms))
            events.append(
                FaultEvent(float(spec.at_ms), victim, "down", "crash")
            )
    elif spec.kind == "preempt":
        # Poisson preemption times across the fleet; a candidate hitting a
        # VM that is still down is dropped at compile time so the injector
        # only ever applies clean down/up pairs.
        mean_gap_ms = 60_000.0 / spec.rate_per_min
        down_until = [0.0] * n_vms
        t = 0.0
        while True:
            t += float(rng.exponential(mean_gap_ms))
            if t >= horizon_ms:
                break
            victim = int(rng.integers(n_vms))
            if t < down_until[victim]:
                continue
            down_until[victim] = t + spec.recovery_ms
            events.append(FaultEvent(t, victim, "down", "preempt"))
            events.append(
                FaultEvent(t + spec.recovery_ms, victim, "up", "preempt")
            )
    elif spec.kind == "straggler":
        affected = sorted(
            int(v)
            for v in rng.permutation(n_vms)[
                : max(1, math.ceil(spec.fraction * n_vms))
            ]
        )
        # Episode start times, then overlapping episodes merged into
        # disjoint [start, end) intervals so slow/unslow pairs nest
        # cleanly.
        starts: list[float] = []
        t = 0.0
        while True:
            t += float(rng.exponential(spec.interval_ms))
            if t >= horizon_ms:
                break
            starts.append(t)
        intervals: list[tuple[float, float]] = []
        for start in starts:
            end = start + spec.duration_ms
            if intervals and start <= intervals[-1][1]:
                intervals[-1] = (intervals[-1][0], max(intervals[-1][1], end))
            else:
                intervals.append((start, end))
        for start, end in intervals:
            for vm_id in affected:
                events.append(
                    FaultEvent(start, vm_id, "slow", "straggler", spec.slowdown)
                )
                events.append(FaultEvent(end, vm_id, "unslow", "straggler"))
    events.sort(key=lambda ev: (ev.at_ms, ev.vm_id, ev.action))
    return tuple(events)


@dataclass(frozen=True)
class RegionOutage:
    """A compiled region-failover window: one region dark for one span."""

    region_index: int
    start_ms: float
    end_ms: float

    def down_at(self, t_ms: float) -> bool:
        """Whether the victim region is dark at ``t_ms``."""
        return self.start_ms <= t_ms < self.end_ms


def compile_region_failover(
    spec: FaultSpec, seed: int, n_regions: int, horizon_ms: float
) -> RegionOutage:
    """Compile a ``region-failover`` spec into its deterministic outage.

    Pure like :func:`compile_fault_schedule`: ``make_rng(seed)`` consumed
    in a fixed order (victim first, then the start time, uniform over the
    part of the horizon that keeps the whole outage inside it), so every
    backend and process derives the identical window.
    """
    if spec.kind != "region-failover":
        raise ClusterError(
            f"expected a region-failover spec, got kind {spec.kind!r}"
        )
    if n_regions < 2:
        raise ClusterError(
            f"region failover needs >= 2 regions to drain to, got {n_regions}"
        )
    if horizon_ms <= 0:
        raise ClusterError(f"horizon must be > 0 ms, got {horizon_ms}")
    rng = make_rng(seed)
    victim = int(rng.integers(n_regions))
    span = max(horizon_ms - spec.recovery_ms, 0.0)
    start = float(rng.uniform(0.0, span)) if span > 0 else 0.0
    return RegionOutage(victim, start, start + float(spec.recovery_ms))


@dataclass
class FaultStats:
    """Counters the platform surfaces as per-policy result extras."""

    preemptions: int = 0
    crashes: int = 0
    #: Pods killed as collateral: parked pods on a failed VM plus pods
    #: whose cold boot was interrupted by the VM going down.
    evictions: int = 0
    #: Invocations killed mid-flight and re-executed elsewhere.
    retries: int = 0
    #: Invocations dispatched onto a straggling (slowed) VM.
    straggler_exposure: int = 0

    def as_extras(self) -> dict[str, float]:
        """Deterministic extras payload (floats, for the report JSON)."""
        return {
            "preemptions": float(self.preemptions),
            "evictions": float(self.evictions),
            "retries": float(self.retries),
            "straggler_exposure": float(self.straggler_exposure),
        }


class FaultInjector:
    """Applies a compiled fault schedule to a live cluster simulation.

    One driver process walks the schedule: ``down`` marks the VM failed
    (placement refuses it), evicts its parked pods and fires the VM's
    armed failure event — the serving core races every in-flight
    invocation against that event and handles its own preemption. ``up``
    restores the VM; ``slow``/``unslow`` set the VM's transient slowdown.
    """

    def __init__(
        self,
        sim: Simulator,
        vms: _t.Sequence["VirtualMachine"],
        pool: "PoolManager",
        schedule: _t.Sequence[FaultEvent],
        stats: FaultStats,
    ) -> None:
        self.sim = sim
        self.vms = list(vms)
        self.pool = pool
        self.schedule = tuple(schedule)
        self.stats = stats
        self._has_failures = any(ev.action == "down" for ev in self.schedule)
        #: One armed (pending) failure event per VM, re-armed after firing.
        self._failure_events: dict[int, Event] = {
            vm.vm_id: Event(sim) for vm in self.vms
        }
        # The pool reports boot-interruption evictions into the same stats.
        pool.fault_stats = stats
        for ev in self.schedule:
            if ev.vm_id >= len(self.vms):
                raise ClusterError(
                    f"fault event targets VM {ev.vm_id} but the fleet has "
                    f"{len(self.vms)} VMs"
                )

    def start(self) -> None:
        """Launch the schedule driver (no-op for an empty schedule)."""
        if self.schedule:
            self.sim.process(self._driver())

    def watch(self, vm: "VirtualMachine") -> Event | None:
        """The armed failure event of ``vm``, or ``None`` when this
        schedule can never down a VM (stragglers/contention) — so the
        serving core only pays the race where preemption is possible."""
        if not self._has_failures:
            return None
        return self._failure_events[vm.vm_id]

    # -- schedule driver -----------------------------------------------------
    def _driver(self):
        for ev in self.schedule:
            delay = ev.at_ms - self.sim.now
            if delay > 0:
                yield self.sim.timeout(delay)
            self._apply(ev)

    def _apply(self, ev: FaultEvent) -> None:
        vm = self.vms[ev.vm_id]
        if ev.action == "down":
            vm.up = False
            if ev.cause == "crash":
                self.stats.crashes += 1
            else:
                self.stats.preemptions += 1
            self.stats.evictions += self.pool.evict_parked_on(vm)
            # Fire the armed event (busy invocations racing on it preempt
            # themselves), then re-arm for the next failure of this VM.
            self._failure_events[vm.vm_id].succeed(value=ev.cause)
            self._failure_events[vm.vm_id] = Event(self.sim)
        elif ev.action == "up":
            vm.up = True
            self.pool.wake_pending()
        elif ev.action == "slow":
            vm.slowdown = ev.slowdown
        else:  # unslow
            vm.slowdown = 1.0
