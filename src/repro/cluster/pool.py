"""Warm-pod pool manager (Fission PoolManager-style, paper §V-A).

The paper deploys functions with Fission's PoolManager "due to its excellent
performance against cold starts": a pool of pre-booted generic pods is
specialised on demand, so most invocations find a warm instance. We model
this as a per-function warm pool with configurable pre-provisioned size;
when the pool is empty a new pod is created and pays the function's cold
start before serving.

Keep-alive (paper §VII second future-work item — the interplay between
runtime adaptation and function caching): parked pods expire after
``keepalive_ms`` of idleness, trading cold-start probability against the
idle millicore-time their reservations waste. The pool accounts that idle
cost explicitly (``idle_millicore_ms``) so caching strategies can be
compared quantitatively.

Pending pods: when no VM has room, a cold acquisition waits as a pending
pod and re-checks on its own grid of ``retry_interval_ms`` ticks counted
from when it started waiting. A tick that cannot succeed is not simulated:
the pod sleeps in a wait-queue, and only a change that could let it place
(a release, an eviction, a shrinking resize, a VM recovering) arms a wake
on the next tick of its grid. ``throttled`` still counts every grid tick
waited.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass

from ..errors import ClusterError
from ..functions.model import FunctionModel
from ..knobs import NON_NEGATIVE, at_least, check_args
from ..sim.engine import Simulator
from ..sim.events import Event, Timeout
from ..types import Millicores
from .pod import Pod, PodState
from .vm import VirtualMachine

__all__ = ["PoolManager"]


@dataclass
class _Parked:
    """A warm pod sitting in the pool since ``parked_at``."""

    pod: Pod
    parked_at: float


@dataclass(slots=True)
class _Pending:
    """A pod waiting for capacity, and the grid it re-checks on.

    ``tick`` is the next grid tick not yet checked and ``ticks`` the grid
    ticks from the last check up to it. ``event`` is what the waiting
    process yields; it is triggered once a wake is armed.
    """

    size: Millicores
    tick: float
    event: Event
    ticks: int = 1


class PoolManager:
    """Creates, warms, parks and reclaims function pods across VMs."""

    #: Constructor knob domains (``ClusterConfig`` reuses them);
    #: ``keepalive_ms=None`` parks pods forever.
    KNOBS = {"warm_pool_size": at_least(0), "keepalive_ms": NON_NEGATIVE.or_none}

    def __init__(
        self,
        sim: Simulator,
        vms: _t.Sequence[VirtualMachine],
        functions: _t.Mapping[str, FunctionModel],
        warm_pool_size: int = 1,
        colocate_same_function: bool = True,
        keepalive_ms: float | None = None,
    ) -> None:
        if not vms:
            raise ClusterError("pool manager needs at least one VM")
        check_args(ClusterError, PoolManager, locals())
        self.sim = sim
        self.vms = list(vms)
        self.functions = dict(functions)
        self.warm_pool_size = int(warm_pool_size)
        self.colocate_same_function = bool(colocate_same_function)
        self.keepalive_ms = keepalive_ms
        self._warm: dict[str, list[_Parked]] = {name: [] for name in functions}
        self.cold_starts = 0
        self.warm_hits = 0
        self.reclaimed = 0
        self.expired = 0
        self.throttled = 0
        #: Idle millicore-milliseconds spent by parked reservations.
        self.idle_millicore_ms = 0.0
        #: Grid a pending pod re-checks on while the cluster is full.
        self.retry_interval_ms = 10.0
        #: Pending pods, in the order their grid ticks check at one instant.
        self._pending: list[_Pending] = []
        #: Installed by a :class:`~repro.cluster.faults.FaultInjector` so
        #: boot-interruption evictions land in the run's fault counters.
        self.fault_stats = None

    # -- placement policy -------------------------------------------------
    def _pick_vm(self, function: str, size: Millicores) -> VirtualMachine | None:
        """Choose a VM for a new pod, or ``None`` when nothing fits.

        Mirrors production packing (§II-B): prefer VMs already hosting the
        same function (tenant affinity), then best-fit by free capacity.
        """
        candidates = [vm for vm in self.vms if vm.fits(size)]
        if not candidates:
            return None
        if self.colocate_same_function:
            same = [
                vm for vm in candidates
                if vm.colocated_count(function, busy_only=False) > 0
            ]
            if same:
                return min(same, key=lambda vm: vm.free)
        return min(candidates, key=lambda vm: vm.free)

    # -- parked-pod lifecycle ------------------------------------------------
    def _unpark(self, function: str, idx: int) -> Pod:
        """Remove a parked pod, accounting its idle reservation time."""
        entry = self._warm[function].pop(idx)
        self.idle_millicore_ms += entry.pod.size * (
            self.sim.now - entry.parked_at
        )
        return entry.pod

    def _kill_parked(self, function: str, idx: int) -> None:
        """Unpark a pod and free its reservation."""
        pod = self._unpark(function, idx)
        pod.vm.evict(pod)
        pod.kill()

    def _purge_expired(self, function: str) -> None:
        """Kill parked pods idle beyond the keep-alive TTL."""
        if self.keepalive_ms is None:
            return
        parked = self._warm[function]
        expired = self.expired
        for idx in range(len(parked) - 1, -1, -1):
            if self.sim.now - parked[idx].parked_at > self.keepalive_ms:
                self._kill_parked(function, idx)
                self.expired += 1
        if self.expired != expired:
            self.wake_pending()

    def _reclaim_idle(self, needed: Millicores) -> None:
        """Evict parked warm pods until some VM can fit ``needed``.

        Idle-pod reclamation under capacity pressure — what a kubelet does
        before refusing a pending pod.
        """
        reclaimed = self.reclaimed
        for function, parked in self._warm.items():
            while parked and not any(vm.fits(needed) for vm in self.vms):
                self._kill_parked(function, 0)
                self.reclaimed += 1
        if self.reclaimed != reclaimed:
            self.wake_pending()

    # -- pending pods --------------------------------------------------------
    def _before_ticks(self) -> bool:
        """Whether the running event precedes the grid ticks due now.

        A tick is scheduled one interval before it is due, so only a
        timeout scheduled longer ago than that runs ahead of it.
        """
        active = self.sim.active_event
        return (
            isinstance(active, Timeout)
            and active.delay > self.retry_interval_ms
        )

    def _next_tick(self, waiter: _Pending) -> float:
        """The first grid tick of ``waiter`` that sees a change made now.

        Ticks are summed one interval at a time, exactly as a chain of
        ``retry_interval_ms`` timeouts reaches them. An armed waiter keeps
        the tick it is armed for.
        """
        if waiter.event.triggered:
            return waiter.tick
        now = self.sim.now
        step = self.retry_interval_ms
        while waiter.tick < now:
            waiter.tick += step
            waiter.ticks += 1
        if waiter.tick == now and not self._before_ticks():
            waiter.tick += step
            waiter.ticks += 1
        return waiter.tick

    def wake_pending(self) -> None:
        """Arm a wake for every pending pod a grid tick could now serve.

        Called after anything that frees room or parks a pod. A pending pod
        can place once an up VM has its size free, and any parked pod means
        its next check would reclaim. A wake lands on the pod's next grid
        tick; a wake too many is only a check that finds nothing. Every pod
        due on an armed tick is armed with it, in queue order, so checks at
        the same instant keep the order their ticks would have had.
        """
        pending = self._pending
        if not pending:
            return
        parked = any(self._warm.values())
        room = max((vm.free for vm in self.vms if vm.up), default=0)
        due = {
            self._next_tick(waiter)
            for waiter in pending
            if not waiter.event.triggered and (parked or waiter.size <= room)
        }
        if not due:
            return
        for waiter in pending:
            if not waiter.event.triggered and self._next_tick(waiter) in due:
                self.sim.succeed_at(waiter.event, waiter.tick)

    def _enqueue(self, waiter: _Pending) -> None:
        """Queue a new pending pod in the order its grid ticks run.

        A pod that starts waiting while an event ahead of the ticks due now
        runs checks before every pod due now; otherwise it goes last.
        """
        pending = self._pending
        if self._before_ticks():
            now = self.sim.now
            for idx, other in enumerate(pending):
                if self._next_tick(other) == now:
                    pending.insert(idx, waiter)
                    return
        pending.append(waiter)

    def _wait_for_room(self, function: str, size: Millicores):
        """Process: wait as a pending pod; returns the VM a tick found.

        Each wake checks exactly as a poll on that tick would: count the
        ticks waited, reclaim idle pods, then try to pick a VM.
        """
        step = self.retry_interval_ms
        waiter = _Pending(size, self.sim.now + step, Event(self.sim))
        self._enqueue(waiter)
        try:
            while True:
                yield waiter.event
                self.throttled += waiter.ticks
                self._reclaim_idle(size)
                vm = self._pick_vm(function, size)
                if vm is not None:
                    return vm
                waiter.tick = self.sim.now + step
                waiter.ticks = 1
                waiter.event = Event(self.sim)
        finally:
            self._pending.remove(waiter)

    # -- pod acquisition -----------------------------------------------------
    def acquire(self, function: str, size: Millicores):
        """Process: obtain a ready pod of ``function`` resized to ``size``.

        Yields simulation events; returns a WARM pod. Warm-pool hits resize
        the parked pod in place; otherwise a cold start is paid.
        """
        if function not in self.functions:
            raise ClusterError(f"unknown function {function!r}")
        self._purge_expired(function)
        warm = self._warm[function]
        # A parked pod is only reusable when its VM has headroom for the
        # requested size (upsizing may exceed the VM under multi-tenant
        # pressure); scan newest-first for one that fits.
        for idx in range(len(warm) - 1, -1, -1):
            pod = warm[idx].pod
            if pod.vm.up and pod.vm.free + pod.size >= size:
                self._unpark(function, idx)
                self.warm_hits += 1
                self._resize(pod, size)
                return pod
        # Cold path: boot a fresh pod. Under capacity pressure, reclaim idle
        # pods first, then wait for running invocations to release cores
        # (the pod stays "pending", as on a saturated Kubernetes node). A VM
        # failing mid-boot loses the boot: evict and start over elsewhere.
        self.cold_starts += 1
        model = self.functions[function]
        while True:
            vm = self._pick_vm(function, size)
            if vm is None:
                self._reclaim_idle(size)
                vm = self._pick_vm(function, size)
            if vm is None:
                vm = yield from self._wait_for_room(function, size)
            pod = Pod(function, size, vm)
            vm.place(pod)
            yield self.sim.timeout(model.cold_start_ms)
            if not vm.up:
                vm.evict(pod)
                pod.kill()
                if self.fault_stats is not None:
                    self.fault_stats.evictions += 1
                continue
            pod.warm_up()
            return pod

    def _resize(self, pod: Pod, size: Millicores) -> None:
        if pod.size != size:
            shrinking = size < pod.size
            pod.vm.resize_pod(pod, size)
            if shrinking:
                self.wake_pending()

    def release(self, pod: Pod) -> None:
        """Return a pod after an invocation; park or reclaim it."""
        if pod.state is not PodState.WARM:
            raise ClusterError(
                f"released pod {pod.pod_id} must be WARM, is {pod.state.value}"
            )
        if not pod.vm.up:
            # The VM failed in the same instant the invocation finished
            # (the finish won the race); never park onto a down VM.
            pod.vm.evict(pod)
            pod.kill()
            if self.fault_stats is not None:
                self.fault_stats.evictions += 1
            return
        self._purge_expired(pod.function)
        warm = self._warm[pod.function]
        keepalive_disabled = self.keepalive_ms is not None and self.keepalive_ms == 0
        if len(warm) < self.warm_pool_size and not keepalive_disabled:
            warm.append(_Parked(pod=pod, parked_at=self.sim.now))
        else:
            pod.vm.evict(pod)
            pod.kill()
        self.wake_pending()

    # -- fault handling ------------------------------------------------------
    def evict_parked_on(self, vm: VirtualMachine) -> int:
        """Kill every parked pod on a failed ``vm``; returns the count.

        Called by the fault injector when a VM goes down — parked warm
        state on that VM is lost (later acquisitions will cold-start
        elsewhere), which is exactly the cold-start-storm mechanism a real
        preemption triggers.
        """
        evicted = 0
        for function in self._warm:
            parked = self._warm[function]
            for idx in range(len(parked) - 1, -1, -1):
                if parked[idx].pod.vm is vm:
                    self._kill_parked(function, idx)
                    evicted += 1
        return evicted

    # -- introspection ------------------------------------------------------
    def warm_count(self, function: str) -> int:
        """Parked warm pods for ``function``."""
        return len(self._warm.get(function, []))

    @property
    def cold_start_rate(self) -> float:
        """Fraction of acquisitions that paid a cold start."""
        total = self.cold_starts + self.warm_hits
        return self.cold_starts / total if total else 0.0
