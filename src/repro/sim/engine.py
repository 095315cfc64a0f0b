"""The discrete-event simulator: clock + event heap + run loop.

Design notes (hpc-parallel guide: "make it work, make it right, then profile
the bottleneck"): the run loop is a plain binary-heap pop loop with no
per-event allocation beyond the heap entry tuple; a monotonically increasing
sequence number breaks ties deterministically, which makes every simulation
bit-reproducible for a given seed.

The run loops bind ``heapq.heappop`` and the heap list to locals and pop
events inline rather than calling :meth:`step` per event — attribute lookups
and the defensive time check are hoisted out of the hot loop (the heap
invariant already guarantees non-decreasing pop times, because every push
happens at ``now + delay`` with ``delay >= 0``). :meth:`step` keeps the
checked, one-event-at-a-time semantics for debugging and tests.
"""

from __future__ import annotations

import heapq
import typing as _t

from ..errors import SimulationError
from .events import AllOf, AnyOf, Event, Timeout
from .process import Process

__all__ = ["Simulator"]


class Simulator:
    """Event-driven simulation engine with millisecond float time."""

    __slots__ = ("_now", "_heap", "_seq", "_event_count", "_active")

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._event_count = 0
        self._active: Event | None = None

    # -- time ---------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time (ms)."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Total number of events processed so far (for diagnostics)."""
        return self._event_count

    @property
    def active_event(self) -> Event | None:
        """The event whose callbacks are running, or ``None`` between runs.

        Lets a callback tell how its event was scheduled (a
        :class:`Timeout`'s ``delay``), which fixes its place among the
        other events due at the same instant.
        """
        return self._active

    # -- event factories ------------------------------------------------------
    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: _t.Any = None) -> Timeout:
        """An event that fires ``delay`` ms from now."""
        return Timeout(self, delay, value=value)

    def all_of(self, events: _t.Sequence[Event]) -> AllOf:
        """Composite event: fires when all of ``events`` fired."""
        return AllOf(self, events)

    def any_of(self, events: _t.Sequence[Event]) -> AnyOf:
        """Composite event: fires when any of ``events`` fired."""
        return AnyOf(self, events)

    def process(self, generator: _t.Generator[Event, _t.Any, _t.Any]) -> Process:
        """Launch a generator-based process (it starts at the current time)."""
        return Process(self, generator)

    # -- scheduling ---------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: delay={delay}")
        heapq.heappush(self._heap, (self._now + delay, self._seq, event))
        self._seq += 1

    def succeed_at(self, event: Event, at: float) -> Event:
        """Trigger ``event`` to fire at the absolute time ``at``.

        ``event.succeed(delay=at - now)`` fires at ``now + (at - now)``,
        which floating point need not round back to ``at``.
        """
        if at < self._now:
            raise SimulationError(
                f"cannot schedule into the past: at={at} < now={self._now}"
            )
        if event._triggered:
            raise SimulationError("event already triggered")
        event._triggered = True
        heapq.heappush(self._heap, (at, self._seq, event))
        self._seq += 1
        return event

    # -- run loop -------------------------------------------------------------
    def step(self) -> None:
        """Process exactly one event; raise if the heap is empty."""
        if not self._heap:
            raise SimulationError("no scheduled events")
        t, _, event = heapq.heappop(self._heap)
        if t < self._now:
            raise SimulationError(f"time went backwards: {t} < {self._now}")
        self._now = t
        self._event_count += 1
        self._active = event
        event._process()
        self._active = None

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` when idle."""
        return self._heap[0][0] if self._heap else float("inf")

    def run(self, until: float | Event | None = None) -> _t.Any:
        """Run events until exhaustion, a deadline, or an event fires.

        Parameters
        ----------
        until:
            ``None`` runs until no events remain. A ``float`` runs until the
            clock would pass that time (the clock is then advanced to it).
            An :class:`Event` runs until that event has been processed and
            returns its value (raising its exception if it failed).
        """
        # Event._process is inlined into each loop body (no Event subclass
        # overrides it): the method-call frame per event is the single
        # largest constant in the pop loop.
        heap = self._heap
        pop = heapq.heappop
        count = 0
        if until is None:
            try:
                while heap:
                    t, _, event = pop(heap)
                    self._now = t
                    self._active = event
                    count += 1
                    event._processed = True
                    callbacks = event.callbacks
                    if callbacks is not None:
                        event.callbacks = None
                        for cb in callbacks:
                            cb(event)
            finally:
                self._event_count += count
                self._active = None
            return None
        if isinstance(until, Event):
            stop = until
            try:
                while not stop._processed:
                    if not heap:
                        raise SimulationError(
                            "simulation ran out of events before target event fired"
                        )
                    t, _, event = pop(heap)
                    self._now = t
                    self._active = event
                    count += 1
                    event._processed = True
                    callbacks = event.callbacks
                    if callbacks is not None:
                        event.callbacks = None
                        for cb in callbacks:
                            cb(event)
            finally:
                self._event_count += count
                self._active = None
            if not stop.ok:
                raise stop.value
            return stop.value
        deadline = float(until)
        if deadline < self._now:
            raise SimulationError(
                f"run deadline {deadline} is before current time {self._now}"
            )
        try:
            while heap and heap[0][0] <= deadline:
                t, _, event = pop(heap)
                self._now = t
                self._active = event
                count += 1
                event._processed = True
                callbacks = event.callbacks
                if callbacks is not None:
                    event.callbacks = None
                    for cb in callbacks:
                        cb(event)
        finally:
            self._event_count += count
            self._active = None
        self._now = deadline
        return None
