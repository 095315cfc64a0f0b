"""In-memory spans and counters for the traced benchmark run.

Every wrapped call pushes a frame on one stack. When the call returns,
its duration minus the time its nested frames covered is booked to its
probe as *self time*, so self times add up to the wall time spent inside
wrapped code and the rest of a phase is left to the benchmark's own
frame. Low-frequency calls are also kept as spans (name, layer, start,
end, parent, context) for the Chrome trace export; high-frequency calls
are counted and timed but leave no span.

Totals are kept per *phase* (``setup``, ``pass``, ``replay``) in a
:class:`Ledger`, together with how many instances of the phase ran, so
per-layer metrics can be reported per run-equivalent: one set-up, one
measured pass and one replay.

:class:`Patcher` installs the wrappers. A module-level function is
replaced in every ``repro`` module that holds the same object, so
aliases such as ``scenarios.runner.generate_requests`` are traced too;
a method or property is replaced on the class that defines it.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import json
import sys
import time
import typing as _t

__all__ = ["Ledger", "Stopwatch", "Tracer", "Patcher", "Probe"]

#: Probe kinds: a span per call, a timed counter, a bare call count, a
#: generator timed per resumption, and an awaited coroutine.
SPAN, COUNTER, COUNT, GENERATOR, ASYNC = (
    "span", "counter", "count", "generator", "async",
)

#: Probe and layer name of the benchmark's own frames (harness time).
BENCH = "bench"

#: The package whose module-level aliases of a wrapped function are
#: replaced along with the original.
PACKAGE = "repro"


class Ledger:
    """Totals of one phase kind, summed over its instances."""

    def __init__(self) -> None:
        self.instances = 0
        self.wall_s = 0.0
        self.self_s: dict[str, float] = collections.defaultdict(float)
        self.calls: collections.Counter[str] = collections.Counter()
        self.values: dict[str, float] = collections.defaultdict(float)
        self.samples: dict[str, list[float]] = collections.defaultdict(list)


class _Timed:
    """What a phase context yields; ``wall_s`` is set when it exits."""

    wall_s = 0.0


class Stopwatch:
    """Untraced timing: the same ``phase`` interface, no bookkeeping."""

    def __init__(self) -> None:
        self.clock = time.perf_counter

    @contextlib.contextmanager
    def phase(self, kind: str) -> _t.Iterator[_Timed]:
        timed = _Timed()
        start = self.clock()
        try:
            yield timed
        finally:
            timed.wall_s = self.clock() - start


class Tracer:
    """Frame stack, per-phase ledgers and recorded spans."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.origin = self.clock()
        self.ledgers: dict[str, Ledger] = {}
        #: Ledger for work outside any phase (never reported).
        self.scratch = Ledger()
        self.ledger = self.scratch
        self.stack: list[list[_t.Any]] = []
        #: ``[name, layer, start, end, parent span id, context]`` per span.
        self.spans: list[list[_t.Any]] = []
        #: ``(timestamp, {probe: calls so far})`` at each phase end.
        self.counter_marks: list[tuple[float, dict[str, int]]] = []
        self.context = ""
        #: Callables returning monotonic counters; their deltas over a
        #: phase are added to the phase ledger's ``values``.
        self.gauges: list[_t.Callable[[], dict[str, float]]] = []
        self.layer_of: dict[str, str] = {BENCH: BENCH}

    # -- frames --------------------------------------------------------------
    def enter(self, probe: str, record: bool) -> list[_t.Any]:
        span_id = None
        if record:
            span_id = len(self.spans)
            parent = next(
                (f[3] for f in reversed(self.stack) if f[3] is not None), None
            )
            self.spans.append(
                [probe, self.layer_of[probe], 0.0, 0.0, parent, self.context]
            )
        frame = [probe, self.clock(), 0.0, span_id]
        self.stack.append(frame)
        return frame

    def exit(self, frame: list[_t.Any]) -> float:
        end = self.clock()
        stack = self.stack
        stack.pop()
        duration = end - frame[1]
        self.ledger.self_s[frame[0]] += duration - frame[2]
        if stack:
            stack[-1][2] += duration
        if frame[3] is not None:
            span = self.spans[frame[3]]
            span[2], span[3] = frame[1], end
        return duration

    # -- phases --------------------------------------------------------------
    def _gauge_totals(self) -> dict[str, float]:
        totals: dict[str, float] = collections.defaultdict(float)
        for gauge in self.gauges:
            for key, value in gauge().items():
                totals[key] += value
        return totals

    @contextlib.contextmanager
    def phase(self, kind: str) -> _t.Iterator[_Timed]:
        ledger = self.ledgers.setdefault(kind, Ledger())
        previous = self.ledger
        self.ledger = ledger
        before = self._gauge_totals()
        timed = _Timed()
        label = f"{kind}#{ledger.instances}"
        self.spans.append([label, BENCH, 0.0, 0.0, None, ""])
        frame = [BENCH, self.clock(), 0.0, len(self.spans) - 1]
        self.stack.append(frame)
        try:
            yield timed
        finally:
            timed.wall_s = self.exit(frame)
            after = self._gauge_totals()
            for key, value in after.items():
                ledger.values[key] += value - before.get(key, 0.0)
            ledger.instances += 1
            ledger.wall_s += timed.wall_s
            self.counter_marks.append(
                (self.clock(), dict(self.all_calls()))
            )
            self.ledger = previous

    def all_calls(self) -> collections.Counter[str]:
        total: collections.Counter[str] = collections.Counter()
        for ledger in self.ledgers.values():
            total.update(ledger.calls)
        return total

    # -- export --------------------------------------------------------------
    def chrome_trace(self, metadata: dict[str, _t.Any]) -> dict[str, _t.Any]:
        """Spans as Chrome trace-event JSON (loadable in Perfetto)."""
        events: list[dict[str, _t.Any]] = []
        for span_id, (name, layer, start, end, parent, context) in enumerate(
            self.spans
        ):
            args: dict[str, _t.Any] = {"id": span_id}
            if parent is not None:
                args["parent"] = parent
            if context:
                args["context"] = context
            events.append({
                "name": name, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
                "ts": round((start - self.origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": args,
            })
        for stamp, calls in self.counter_marks:
            events.append({
                "name": "calls", "ph": "C", "pid": 1, "tid": 1,
                "ts": round((stamp - self.origin) * 1e6, 3),
                "args": {probe: n for probe, n in sorted(calls.items())},
            })
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": metadata,
        }

    def write_chrome_trace(self, path: str, metadata: dict[str, _t.Any]) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.chrome_trace(metadata), fh)


Observer = _t.Callable[[Ledger, tuple, _t.Any, float], None]


class Probe(_t.NamedTuple):
    """One wrapped entry point.

    ``target`` is ``(module, name)`` for a module-level function or
    ``(module, class, name)`` for a method or property. ``observe`` sees
    ``(ledger, args, result, duration)`` after each call; ``context``
    maps the call's arguments to the id spans inside it carry.
    """

    name: str
    layer: str
    kind: str
    target: tuple[str, ...]
    observe: Observer | None = None
    context: _t.Callable[[tuple], str] | None = None


def _wrap(tracer: Tracer, probe: Probe, fn: _t.Callable) -> _t.Callable:
    name, observe, context = probe.name, probe.observe, probe.context

    if probe.kind == COUNT:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.ledger.calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    if probe.kind == GENERATOR:
        def resumed(iterator, args):
            while True:
                frame = tracer.enter(name, False)
                try:
                    item = next(iterator)
                except StopIteration:
                    tracer.exit(frame)
                    return
                except BaseException:
                    tracer.exit(frame)
                    raise
                duration = tracer.exit(frame)
                if observe is not None:
                    observe(tracer.ledger, args, item, duration)
                yield item

        @functools.wraps(fn)
        def generator(*args, **kwargs):
            tracer.ledger.calls[name] += 1
            return resumed(fn(*args, **kwargs), args)
        return generator

    if probe.kind == ASYNC:
        @functools.wraps(fn)
        async def awaited(*args, **kwargs):
            tracer.ledger.calls[name] += 1
            frame = tracer.enter(name, True)
            try:
                result = await fn(*args, **kwargs)
            finally:
                duration = tracer.exit(frame)
            if observe is not None:
                observe(tracer.ledger, args, result, duration)
            return result
        return awaited

    record = probe.kind == SPAN

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        tracer.ledger.calls[name] += 1
        saved = tracer.context
        if context is not None:
            tracer.context = context(args)
        frame = tracer.enter(name, record)
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = tracer.exit(frame)
            tracer.context = saved
        if observe is not None:
            observe(tracer.ledger, args, result, duration)
        return result
    return timed


class Patcher:
    """Installs and removes the probes' wrappers."""

    def __init__(self, tracer: Tracer, probes: _t.Sequence[Probe]) -> None:
        self.tracer = tracer
        self.probes = list(probes)
        self._undo: list[tuple[_t.Any, str, _t.Any]] = []
        for probe in self.probes:
            tracer.layer_of[probe.name] = probe.layer

    def install(self) -> None:
        if self._undo:
            return
        for probe in self.probes:
            module = importlib.import_module(probe.target[0])
            if len(probe.target) == 2:
                self._patch_function(module, probe)
            else:
                self._patch_member(module, probe)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch_function(self, module: _t.Any, probe: Probe) -> None:
        original = getattr(module, probe.target[1])
        wrapped = _wrap(self.tracer, probe, original)
        for mod in list(sys.modules.values()):
            mod_name = getattr(mod, "__name__", None) or ""
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
                    self._undo.append((mod, attr, original))

    def _patch_member(self, module: _t.Any, probe: Probe) -> None:
        _, class_name, attr = probe.target
        owner = getattr(module, class_name)
        try:
            original = owner.__dict__[attr]
        except KeyError:
            raise AttributeError(
                f"probe {probe.name}: {class_name} defines no {attr!r}"
            ) from None
        if isinstance(original, property):
            wrapped: _t.Any = property(
                _wrap(self.tracer, probe, original.fget),
                original.fset, original.fdel, original.__doc__,
            )
        else:
            wrapped = _wrap(self.tracer, probe, original)
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))
