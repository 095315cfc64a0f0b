"""Arrival-grammar fuzz: no token hangs or yields a non-finite arrival.

Every ``parse_arrival`` token, with any operand from the smallest
subnormal to 1e308 (plus nan and inf) and an optional ``storm@M[:F]``
fault on top, must do one of three things within a 5 s budget:

* fail at construction with a typed error naming the knob;
* fail at draw time with the engine's overflow error, naming the spec
  (an overflow that depends on how many arrivals are drawn, such as
  ``constant@1e308`` reaching ``inf`` at index 2);
* yield finite, non-decreasing timestamps from both ``timestamps(n)`` and
  ``stream()``; for the kinds that draw one distribution per chunk
  (constant, poisson, azure, replay) the stream starts with the batch.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import signal

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ClusterError, ExperimentError, TraceError
from repro.rng import derive_rng
from repro.scenarios.matrix import parse_arrival, parse_fault, storm_arrival
from repro.traces.trace_file import generate_workload_trace, save_trace

BUDGET_S = 5.0
CONSTRUCTION_ERRORS = (TraceError, ExperimentError, ClusterError)
PREFIX_KINDS = ("constant", "poisson", "azure", "replay")

#: The full operand range, weighted so that typical rates (which draw
#: arrivals rather than failing at construction) come up as often.
operands = st.one_of(
    st.floats(min_value=0.01, max_value=1000.0),
    st.floats(min_value=5e-324, max_value=1e308),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)
storms = st.one_of(
    st.none(),
    st.tuples(
        st.one_of(
            st.floats(min_value=1.0, max_value=1000.0),
            st.floats(min_value=0.5, max_value=1e9),
            st.sampled_from([math.nan, math.inf]),
        ),
        st.one_of(st.none(), st.floats(min_value=0.0, max_value=1.5)),
    ),
)


@contextlib.contextmanager
def budget(seconds: float = BUDGET_S):
    """Fail, instead of hanging, when the block outlives ``seconds``."""

    def expired(signum, frame):
        raise TimeoutError(f"arrival example exceeded its {seconds} s budget")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "day.jsonl"
    save_trace(generate_workload_trace(["IA", "VA"], 60, seed=3), path)
    return str(path)


def _drawn(draw, label: str):
    """``draw()``, or ``None`` when it fails with the overflow error."""
    try:
        return draw()
    except TraceError as exc:
        assert f"arrival process {label} overflowed" in str(exc), exc
        return None


def _check(values: np.ndarray, n: int) -> None:
    assert values.shape == (n,)
    assert np.isfinite(values).all()
    assert (np.diff(values) >= 0).all()


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    kind=st.sampled_from(["constant", "poisson", "burst", "azure", "diurnal", "replay"]),
    operand=operands,
    storm=storms,
    n=st.integers(min_value=1, max_value=300),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_every_token_fails_typed_or_draws_finite_sorted_arrivals(
    trace_path, kind, operand, storm, n, seed
):
    token = f"{kind}@{trace_path if kind == 'replay' else repr(operand)}"
    with budget():
        try:
            spec = parse_arrival(token)
            if storm is not None:
                multiplier, fraction = storm
                fault = f"storm@{multiplier!r}"
                if fraction is not None:
                    fault += f":{fraction!r}"
                spec = storm_arrival(spec, parse_fault(fault))
        except CONSTRUCTION_ERRORS:
            return
        batch = _drawn(lambda: spec.timestamps(n, derive_rng(seed, "fuzz"), "IA"), spec.label)
        streamed = _drawn(
            lambda: np.array(
                list(itertools.islice(spec.stream(derive_rng(seed, "fuzz"), "IA"), n))
            ),
            spec.label,
        )
    if batch is not None:
        _check(batch, n)
    if streamed is not None:
        _check(streamed, n)
    if spec.kind in PREFIX_KINDS and batch is not None and streamed is not None:
        assert streamed.tobytes() == batch.tobytes()


def test_budget_interrupts_a_hang():
    with pytest.raises(TimeoutError, match="budget"):
        with budget(0.05):
            while True:
                pass
