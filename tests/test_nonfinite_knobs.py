"""Non-finite arrival, fault and workload knobs fail at construction.

A NaN or infinite rate used to hang the NHPP thinning loop (no candidate
is ever accepted) or silently produce NaN / all-zero arrivals and NaN
worksets; every such knob must now raise a typed error naming itself.
"""

from __future__ import annotations

import math

import pytest

from repro.cli import main
from repro.cluster.faults import FaultSpec, parse_fault
from repro.errors import ClusterError, ExperimentError, TraceError
from repro.scenarios.matrix import parse_arrival
from repro.serving import ServingConfig
from repro.traces.diurnal import DiurnalRate, FlashCrowdRate, nhpp_arrivals
from repro.traces.workload import ArrivalSpec, WorkloadConfig
from repro.rng import make_rng

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
    label = {"base_rate_per_s": "base rate"}.get(name, name)
    with pytest.raises(TraceError, match=label):
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
    with pytest.raises(ClusterError, match="storm"):
        parse_fault(token)


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
def test_cli_commands_fail_fast(argv):
    with pytest.raises((TraceError, ClusterError, ExperimentError)):
        main(argv + ["--samples", "300"])
