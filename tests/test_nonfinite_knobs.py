"""Non-finite arrival, fault and workload knobs fail at construction.

A NaN or infinite rate used to hang the NHPP thinning loop (no candidate
is ever accepted) or silently produce NaN / all-zero arrivals and NaN
worksets; every such knob must now raise a typed error naming itself.
So must a finite knob whose derived rate, mean gap or thinning cost
overflows, and an overflow that depends on how many arrivals are drawn
fails at draw time naming the spec and the index. A working-set scale
that overflows a stage's working sets fails before the first draw (and
before profiling, when serving), or at the draw when the stage's support
is unbounded, naming the knob either way.
"""

from __future__ import annotations

import itertools
import math
import re
import warnings

import numpy as np
import pytest

import repro.serving.loop as serving_loop
from repro.cluster.faults import FaultSpec, parse_fault
from repro.errors import ClusterError, ExperimentError, TraceError
from repro.functions.model import FunctionModel
from repro.functions.worksets import LognormalWorkset
from repro.profiling.profiler import profile_workflow
from repro.scenarios.matrix import parse_arrival
from repro.serving import ServingConfig, ServingLoop
from repro.traces.diurnal import DiurnalRate, FlashCrowdRate, nhpp_arrivals
from repro.traces.workload import ArrivalSpec, WorkloadConfig, generate_requests
from repro.rng import make_rng
from repro.workflow.catalog import Workflow, intelligent_assistant
from repro.workflow.chain import chain_dag

from tests.conftest import make_function, small_limits

NON_FINITE = [math.nan, math.inf, -math.inf]

#: Every numeric field each arrival kind consumes.
KIND_FIELDS = [
    ("constant", "interval_ms"),
    ("poisson", "rate_per_s"),
    ("burst", "rate_per_s"),
    ("burst", "burst_rate_per_s"),
    ("burst", "burst_fraction"),
    ("azure", "rate_per_s"),
    ("azure", "sigma"),
] + [
    (kind, name)
    for kind in ("diurnal", "storm")
    for name in ("rate_per_s", "amplitude", "period_s", "phase")
] + [("storm", "storm_multiplier"), ("storm", "storm_fraction")]


@pytest.mark.parametrize("kind,name", KIND_FIELDS)
@pytest.mark.parametrize("value", NON_FINITE, ids=str)
def test_arrival_spec_rejects_non_finite_fields(kind, name, value):
    with pytest.raises(TraceError, match=name):
        ArrivalSpec(kind=kind, **{name: value})


def test_unconsumed_fields_are_not_checked():
    assert ArrivalSpec(kind="constant", rate_per_s=math.nan).kind == "constant"
    assert ArrivalSpec(kind="replay", trace="t.jsonl", sigma=math.inf).trace


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_parsed_tokens_fail_fast(token):
    for kind in ("constant", "poisson", "burst", "azure", "diurnal"):
        with pytest.raises(TraceError, match="must be finite"):
            parse_arrival(f"{kind}@{token}")


@pytest.mark.parametrize("value", NON_FINITE, ids=str)
@pytest.mark.parametrize(
    "name", ["base_rate_per_s", "amplitude", "period_s", "phase"]
)
def test_diurnal_curve_rejects_non_finite(name, value):
    kwargs = dict(base_rate_per_s=8.0, amplitude=0.6, period_s=60.0, phase=0.0)
    kwargs[name] = value
    with pytest.raises(TraceError, match=f"DiurnalRate.{name} must be"):
        DiurnalRate.sinusoid(**kwargs)


@pytest.mark.parametrize("value", NON_FINITE, ids=str)
def test_piecewise_and_storm_curves_reject_non_finite(value):
    with pytest.raises(TraceError, match="finite"):
        DiurnalRate.piecewise([(0.0, 5.0), (10.0, value)], period_s=20.0)
    base = DiurnalRate.sinusoid(8.0)
    with pytest.raises(TraceError, match="multiplier"):
        FlashCrowdRate(base, value, 0.15)
    with pytest.raises(TraceError, match="fraction"):
        FlashCrowdRate(base, 6.0, value)


def test_overflowing_envelope_fails_instead_of_hanging():
    curve = DiurnalRate.sinusoid(1e308, amplitude=1.0)
    with pytest.raises(TraceError, match="peak rate"):
        nhpp_arrivals(curve, 10, make_rng(1))


@pytest.mark.parametrize("value", NON_FINITE, ids=str)
def test_storm_fault_rejects_non_finite(value):
    with pytest.raises(ClusterError, match="multiplier"):
        FaultSpec(kind="storm", multiplier=value)
    with pytest.raises(ClusterError, match="fraction"):
        FaultSpec(kind="storm", window_fraction=value)


@pytest.mark.parametrize("token", ["storm@nan", "storm@inf", "storm@6:nan"])
def test_storm_tokens_fail_fast(token):
    with pytest.raises(
        ClusterError, match=r"FaultSpec\.(multiplier|window_fraction) must be"
    ):
        parse_fault(token)


#: Every numeric field each fault kind consumes.
FAULT_FIELDS = [
    ("preempt", "rate_per_min"),
    ("preempt", "recovery_ms"),
    ("crash", "at_ms"),
    ("straggler", "fraction"),
    ("straggler", "slowdown"),
    ("straggler", "duration_ms"),
    ("straggler", "interval_ms"),
    ("contention", "scale"),
    ("storm", "multiplier"),
    ("storm", "window_fraction"),
    ("region-failover", "recovery_ms"),
]


@pytest.mark.parametrize("kind,name", FAULT_FIELDS)
@pytest.mark.parametrize("value", NON_FINITE, ids=str)
def test_fault_spec_rejects_non_finite_fields(kind, name, value):
    with pytest.raises(ClusterError, match=f"FaultSpec.{name} must be"):
        FaultSpec(kind=kind, **{name: value})


def test_unconsumed_fault_fields_are_not_checked():
    assert FaultSpec(kind="crash", scale=math.nan).kind == "crash"


FAULTED_SWEEP = ["sweep", "--workflows", "IA", "--policies", "Janus",
                 "--requests", "30", "--arrivals", "poisson@8", "--jobs", "1",
                 "--no-cache"]


@pytest.mark.parametrize(
    "argv,knob",
    [
        # Spun in compile_fault_schedule: a NaN rate never reaches the horizon.
        (["--executor", "cluster", "--faults", "preempt@nan"], "rate_per_min"),
        # Spun in the DES: an infinitely slow episode never ends.
        (["--executor", "cluster", "--faults", "straggler@0.5:inf"], "slowdown"),
        # Exited 0 with NaN p50 and p99.
        (["--executor", "cluster", "--faults", "contention@inf"], "scale"),
        # Accepted silently: the crash never fires.
        (["--executor", "cluster", "--faults", "crash@inf"], "at_ms"),
        # Accepted silently on a fleet: a NaN outage window.
        (["--fleet", "regions=3", "--faults", "region-failover@nan"],
         "recovery_ms"),
    ],
    ids=lambda v: v[-1] if isinstance(v, list) else v,
)
def test_cli_non_finite_fault_knobs_fail_fast(argv, knob, cli_error):
    assert knob in cli_error(FAULTED_SWEEP + argv + ["--samples", "300"])


@pytest.mark.parametrize("value", NON_FINITE + [0.0, -1.0], ids=str)
def test_workset_scale_must_be_finite_and_positive(value):
    with pytest.raises(TraceError, match="workset_scale"):
        WorkloadConfig(workset_scale=value)


@pytest.mark.parametrize("value", [2.7, math.nan, math.inf])
def test_n_requests_must_be_integral(value):
    with pytest.raises(TraceError, match="n_requests"):
        WorkloadConfig(n_requests=value)
    assert WorkloadConfig(n_requests=3.0).n_requests == 3


@pytest.mark.parametrize("value", NON_FINITE + [0.0], ids=str)
def test_drift_scale_must_be_finite_and_positive(value):
    with pytest.raises(ExperimentError, match="workset_schedule"):
        ServingConfig(max_requests=40, workset_schedule=((10, value),))


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--workflows", "IA", "--arrivals", "diurnal@nan"],
        ["sweep", "--workflows", "IA", "--arrivals", "diurnal@inf"],
        ["sweep", "--workflows", "IA", "--faults", "storm@inf"],
        ["serve", "--source", "diurnal@nan"],
        ["serve", "--drift", "10:nan", "--max-requests", "40"],
    ],
    ids=lambda argv: " ".join(argv[-2:]),
)
def test_cli_commands_fail_fast(argv, cli_error):
    cli_error(argv + ["--samples", "300"])


# -- finite knobs whose derived parameters overflow -------------------------

#: ``(spec fields, the knob the error names)``: each spec is finite field
#: by field, but its mean gap, burst rate or thinning envelope is not.
OVERFLOWING_SPECS = [
    (dict(kind="poisson", rate_per_s=1e-320), "rate_per_s"),
    (dict(kind="azure", rate_per_s=1e-320), "rate_per_s"),
    (dict(kind="burst", rate_per_s=1e-320), "rate_per_s"),
    (dict(kind="burst", rate_per_s=1e308), "rate_per_s"),
    (dict(kind="burst", rate_per_s=8.0, burst_rate_per_s=1e-320),
     "burst_rate_per_s"),
    (dict(kind="diurnal", rate_per_s=1.5e308), "rate_per_s"),
    (dict(kind="diurnal", rate_per_s=1e-320), "rate_per_s"),
    (dict(kind="storm", rate_per_s=1e306, storm_multiplier=1000.0),
     "rate_per_s"),
    (dict(kind="storm", rate_per_s=1e-320), "rate_per_s"),
    (dict(kind="storm", rate_per_s=8.0, storm_multiplier=1e9), "multiplier"),
]


@pytest.mark.parametrize(
    "fields,knob", OVERFLOWING_SPECS,
    ids=lambda v: ",".join(f"{k}={x}" for k, x in v.items())
    if isinstance(v, dict) else v,
)
def test_overflowing_specs_fail_at_construction(fields, knob):
    with pytest.raises(TraceError, match=knob):
        ArrivalSpec(**fields)


def test_storm_multiplier_is_capped():
    base = DiurnalRate.sinusoid(8.0)
    assert FlashCrowdRate(base, 1000.0, 0.15).peak_rate == 8.0 * 1.6 * 1000.0
    with pytest.raises(TraceError, match="multiplier"):
        FlashCrowdRate(base, 1000.5, 0.15)
    assert FaultSpec(kind="storm", multiplier=1000.0).multiplier == 1000.0
    with pytest.raises(ClusterError, match="multiplier"):
        FaultSpec(kind="storm", multiplier=1e9)


def test_overflowing_timestamps_name_the_spec_and_index():
    # n-dependent overflow: 2 x 1e308 is inf, so index 2 is the first bad
    # timestamp, in a batch draw and in a stream alike.
    spec = ArrivalSpec(kind="constant", interval_ms=1e308)
    np.testing.assert_array_equal(spec.timestamps(2, None), [0.0, 1e308])
    with pytest.raises(TraceError, match=r"constant@1e\+308ms .*timestamp 2 is inf"):
        spec.timestamps(3, None)
    with pytest.raises(TraceError, match="timestamp 2 is inf"):
        list(itertools.islice(spec.stream(None), 3))


def test_thinning_clock_overflow_raises_instead_of_spinning():
    # Candidate gaps of ~1e303 ms put the clock past 2**53 s at once, where
    # every candidate lands on the curve's dark step: nothing is ever
    # accepted, and the clock runs to inf.
    curve = DiurnalRate.piecewise(((0.0, 0.0), (1.0, 1e-300)), period_s=2.0)
    with pytest.raises(TraceError, match="thinning clock is inf at timestamp 0"):
        nhpp_arrivals(curve, 10, make_rng(1))


SWEEP = ["sweep", "--workflows", "IA", "--requests", "20", "--jobs", "1",
         "--no-cache"]
SERVE = ["serve", "--max-requests", "40"]


@pytest.mark.parametrize(
    "argv,knob",
    [
        (SERVE + ["--source", "diurnal@1.5e308"], "rate_per_s"),
        (SERVE + ["--source", "poisson@8", "--faults", "storm@1e308"],
         "multiplier"),
        (SWEEP + ["--arrivals", "diurnal@1e-320"], "rate_per_s"),
        (SERVE + ["--source", "diurnal@1e-320"], "rate_per_s"),
        (SWEEP + ["--arrivals", "poisson@8", "--faults", "storm@1e9"],
         "multiplier"),
        (SWEEP + ["--arrivals", "poisson@1e-320"], "rate_per_s"),
        (SERVE + ["--source", "poisson@1e-320"], "rate_per_s"),
        (SWEEP + ["--arrivals", "constant@1e308"], r"constant@1e\+308ms"),
        (SWEEP + ["--arrivals", "burst@1e308"], "rate_per_s"),
        (SWEEP + ["--arrivals", "diurnal@1.5e308"], "rate_per_s"),
    ],
    ids=lambda v: " ".join(v[-2:]) if isinstance(v, list) else v,
)
def test_cli_overflowing_knobs_fail_with_their_name(argv, knob, cli_error):
    assert re.search(knob, cli_error(argv + ["--samples", "300"]))


# -- working-set scales that overflow a stage's working sets ----------------


def _forbid(monkeypatch, owner, name):
    def forbidden(*args, **kwargs):
        raise AssertionError(f"{name} ran")

    monkeypatch.setattr(owner, name, forbidden)


def test_overflowing_workset_scale_fails_before_the_draw(monkeypatch):
    # IA's OD stage draws 1-15 objects, and 15 x 1e308 is inf.
    _forbid(monkeypatch, FunctionModel, "sample_dynamics")
    config = WorkloadConfig(n_requests=10, workset_scale=1e308)
    with pytest.raises(
        TraceError,
        match=r"^WorkloadConfig\.workset_scale must keep working sets finite, "
        r"got 1e\+308 \(overflows OD's\)$",
    ):
        generate_requests(intelligent_assistant(), config)


def test_overflowing_drift_fails_before_profiling(monkeypatch):
    _forbid(monkeypatch, serving_loop, "profile_workflow")
    config = ServingConfig(
        max_requests=40, samples=300, workset_schedule=((5, 2.0), (10, 1e308))
    )
    with pytest.raises(
        ExperimentError, match=r"^ServingConfig\.workset_schedule\[1\] scale"
    ):
        ServingLoop(config)


def _unbounded_workflow() -> Workflow:
    models = [
        make_function("S0"),
        make_function("S1", gamma=0.3, workset=LognormalWorkset(20.0, 0.8)),
    ]
    return Workflow(
        name="unbounded",
        dag=chain_dag([m.name for m in models]),
        functions={m.name: m for m in models},
        slo_ms=2000.0,
        limits=small_limits(),
    )


def test_unbounded_support_overflows_at_the_draw_without_a_warning():
    # S1's working sets are unbounded, so 1e307 passes the bound check
    # and the first draw above ~18 overflows.
    workflow = _unbounded_workflow()
    config = WorkloadConfig(n_requests=50, workset_scale=1e307)
    profiles = profile_workflow(workflow, samples=200)
    serving = ServingConfig(
        max_requests=50, samples=200, workset_schedule=((3, 1.0), (7, 1e307))
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TraceError, match=r"workset_scale .*\(overflows S1's\)$"):
            generate_requests(workflow, config)
        loop = ServingLoop(serving, workflow=workflow, profiles=profiles)
        rows = list(itertools.islice(loop._dynamics, 7))
        assert [scale for scale, _ in rows] == [1.0] * 7
        with pytest.raises(
            ExperimentError,
            match=r"^ServingConfig\.workset_schedule\[1\] scale .*\(overflows S1's\)$",
        ):
            next(loop._dynamics)


def test_cli_overflowing_drift_fails_before_profiling(monkeypatch, cli_error):
    _forbid(monkeypatch, serving_loop, "profile_workflow")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        message = cli_error(
            ["serve", "--drift", "10:1e308", "--max-requests", "40",
             "--samples", "300"]
        )
    assert message.startswith("ServingConfig.workset_schedule[0] scale (--drift)")
