"""Discrete-event simulation kernel: events, processes, run loop."""

import pytest

from repro.errors import SimulationError
from repro.sim import Event, Interrupt, Simulator


class TestEvents:
    def test_timeout_fires_at_delay(self):
        sim = Simulator()
        ev = sim.timeout(10.0, value="done")
        sim.run()
        assert ev.processed and ev.value == "done"
        assert sim.now == 10.0

    def test_negative_timeout_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.timeout(-1.0)

    def test_event_succeed_once(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)

    def test_fail_requires_exception(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.event().fail("not an exception")  # type: ignore[arg-type]

    def test_callback_after_processed_runs_immediately(self):
        sim = Simulator()
        ev = sim.timeout(0.0)
        sim.run()
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        assert seen == [None]

    def test_all_of_collects_values(self):
        sim = Simulator()
        evs = [sim.timeout(i, value=i) for i in (3.0, 1.0, 2.0)]
        combined = sim.all_of(evs)
        sim.run()
        assert combined.value == [3.0, 1.0, 2.0]
        assert sim.now == 3.0

    def test_all_of_empty_fires_immediately(self):
        sim = Simulator()
        combined = sim.all_of([])
        sim.run()
        assert combined.processed and combined.value == []

    def test_any_of_first_wins(self):
        sim = Simulator()
        evs = [sim.timeout(5.0, value="slow"), sim.timeout(1.0, value="fast")]
        first = sim.any_of(evs)
        sim.run(until=first)
        assert first.value == "fast"

    def test_any_of_empty_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.any_of([])


class TestRunLoop:
    def test_run_until_time_advances_clock(self):
        sim = Simulator()
        sim.timeout(100.0)
        sim.run(until=50.0)
        assert sim.now == 50.0

    def test_run_until_past_deadline_rejected(self):
        sim = Simulator()
        sim.run(until=10.0)
        with pytest.raises(SimulationError):
            sim.run(until=5.0)

    def test_run_until_event_returns_value(self):
        sim = Simulator()
        ev = sim.timeout(4.0, value=17)
        assert sim.run(until=ev) == 17

    def test_run_until_event_propagates_failure(self):
        sim = Simulator()
        ev = sim.event()
        ev.fail(RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            sim.run(until=ev)

    def test_run_until_unreachable_event_raises(self):
        sim = Simulator()
        target = sim.event()  # never triggered
        sim.timeout(1.0)
        with pytest.raises(SimulationError):
            sim.run(until=target)

    def test_step_on_empty_heap_raises(self):
        with pytest.raises(SimulationError):
            Simulator().step()

    def test_peek(self):
        sim = Simulator()
        assert sim.peek() == float("inf")
        sim.timeout(9.0)
        assert sim.peek() == 9.0

    def test_deterministic_tiebreak(self):
        # Two events at the same time process in scheduling order.
        order = []
        sim = Simulator()
        sim.timeout(5.0).add_callback(lambda e: order.append("first"))
        sim.timeout(5.0).add_callback(lambda e: order.append("second"))
        sim.run()
        assert order == ["first", "second"]

    def test_event_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.timeout(float(i))
        sim.run()
        assert sim.processed_events == 5

    def test_succeed_at_fires_at_the_exact_time(self):
        # 0.2 + (0.9 - 0.2) rounds to 0.8999999999999999, not 0.9.
        sim = Simulator()
        sim.run(until=0.2)
        assert sim.now + (0.9 - sim.now) != 0.9
        ev = sim.succeed_at(sim.event(), 0.9)
        sim.run()
        assert ev.processed and sim.now == 0.9
        with pytest.raises(SimulationError):
            sim.succeed_at(sim.event(), 0.5)  # in the past
        with pytest.raises(SimulationError):
            sim.succeed_at(ev, 1.0)  # already triggered

    @pytest.mark.parametrize("mode", ["run", "until-event", "until-time", "step"])
    def test_active_event_is_the_one_being_processed(self, mode):
        sim = Simulator()
        seen = []
        ev = sim.timeout(3.0)
        ev.add_callback(lambda e: seen.append(sim.active_event))
        assert sim.active_event is None
        if mode == "run":
            sim.run()
        elif mode == "until-event":
            sim.run(until=ev)
        elif mode == "until-time":
            sim.run(until=5.0)
        else:
            sim.step()
        assert seen == [ev] and sim.active_event is None


class TestProcesses:
    def test_process_sequencing(self):
        sim = Simulator()
        trace = []

        def proc():
            trace.append(("start", sim.now))
            yield sim.timeout(10.0)
            trace.append(("mid", sim.now))
            got = yield sim.timeout(5.0, value="payload")
            trace.append((got, sim.now))
            return "finished"

        p = sim.process(proc())
        result = sim.run(until=p)
        assert result == "finished"
        assert trace == [("start", 0.0), ("mid", 10.0), ("payload", 15.0)]

    def test_nested_processes(self):
        sim = Simulator()

        def child():
            yield sim.timeout(3.0)
            return 42

        def parent():
            value = yield sim.process(child())
            return value + 1

        assert sim.run(until=sim.process(parent())) == 43

    def test_process_exception_propagates(self):
        sim = Simulator()

        def bad():
            yield sim.timeout(1.0)
            raise ValueError("inside process")

        p = sim.process(bad())
        with pytest.raises(ValueError, match="inside process"):
            sim.run(until=p)

    def test_yield_non_event_fails_process(self):
        sim = Simulator()

        def wrong():
            yield 5  # type: ignore[misc]

        p = sim.process(wrong())
        with pytest.raises(SimulationError):
            sim.run(until=p)

    def test_non_generator_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.process(lambda: None)  # type: ignore[arg-type]

    def test_interrupt(self):
        sim = Simulator()
        caught = []

        def sleeper():
            try:
                yield sim.timeout(100.0)
            except Interrupt as exc:
                caught.append(exc.cause)
                return "interrupted"
            return "slept"

        p = sim.process(sleeper())

        def interrupter():
            yield sim.timeout(1.0)
            p.interrupt(cause="wakeup")

        sim.process(interrupter())
        assert sim.run(until=p) == "interrupted"
        assert caught == ["wakeup"]

    def test_interrupt_finished_process_rejected(self):
        sim = Simulator()

        def quick():
            yield sim.timeout(0.0)

        p = sim.process(quick())
        sim.run()
        with pytest.raises(SimulationError):
            p.interrupt()

    def test_is_alive(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(5.0)

        p = sim.process(proc())
        assert p.is_alive
        sim.run()
        assert not p.is_alive
