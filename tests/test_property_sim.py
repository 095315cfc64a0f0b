"""Property-based tests of the simulation kernel and cluster invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.synthesis.budget import BudgetRange
from repro.synthesis.generator import HintSynthesizer
from repro.synthesis.dp import ChainDP
from repro.errors import SynthesisError


class TestSimulatorProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1,
                    max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_events_process_in_time_order(self, delays):
        sim = Simulator()
        seen = []
        for d in delays:
            sim.timeout(d).add_callback(lambda ev, d=d: seen.append(sim.now))
        sim.run()
        assert seen == sorted(seen)
        assert sim.processed_events == len(delays)

    @given(st.lists(st.floats(min_value=0.0, max_value=1e4), min_size=1,
                    max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_clock_never_goes_backwards(self, delays):
        sim = Simulator()
        stamps = []

        def chained():
            for d in delays:
                yield sim.timeout(d)
                stamps.append(sim.now)

        sim.run(until=sim.process(chained()))
        assert stamps == sorted(stamps)
        assert sim.now == pytest.approx(sum(delays))


class TestBudgetGridGuard:
    def test_coarse_grid_rejected(self, small_profiles):
        synth = HintSynthesizer(small_profiles, ["F0", "F1", "F2"])
        budget = BudgetRange(1000, 2000, step_ms=10)
        dp = ChainDP(
            [small_profiles[f] for f in ("F0", "F1", "F2")], budget.tmax_ms
        )
        with pytest.raises(SynthesisError, match="1 ms budget grid"):
            synth.synthesize_suffix(0, dp, budget)
