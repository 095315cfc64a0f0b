"""The knob schema: every numeric config knob declares its domain once.

Each covered config class checks its declared knobs at construction and
raises its own typed error as ``<Class>.<field> must be <domain>, got
<value>``. The regression cases below used to hang, were accepted, or
failed late (inside a cell, after profiling) with a message that named
another knob; each now fails the same way through the Python API and
through ``janus-repro``.
"""

from __future__ import annotations

import dataclasses
import math
import types
import typing

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adapter.supervisor import HitMissSupervisor
from repro.cluster.autoscaler import HorizontalAutoscaler
from repro.cluster.faults import (
    MAX_EXPECTED_FAULT_EVENTS,
    FaultSpec,
    _KIND_FIELDS as FAULT_KIND_FIELDS,
    compile_fault_schedule,
)
from repro.cluster.interference import _Coeff
from repro.cluster.platform import ClusterConfig
from repro.cluster.pool import PoolManager
from repro.cluster.vm import VirtualMachine
from repro.errors import (
    AdapterError,
    ClusterError,
    ConfigError,
    ExperimentError,
    FunctionModelError,
    PolicyError,
    ProfileError,
    SynthesisError,
    TraceError,
    WorkflowError,
)
from repro.fleet.topology import FleetConfig, parse_fleet
from repro.functions.model import FunctionModel
from repro.functions.worksets import (
    FixedWorkset,
    LognormalWorkset,
    LogUniformWorkset,
    UniformIntWorkset,
)
from repro.knobs import Domain, declared
from repro.policies.orion import OrionPolicy
from repro.profiling.io import save_profile_set
from repro.profiling.profiler import ProfilerConfig, profile_workflow
from repro.scenarios.matrix import (
    Scenario,
    ScenarioMatrix,
    parse_arrival,
    parse_cluster_config,
    parse_fault,
)
from repro.scenarios.runner import evaluate_cell
from repro.serving import ServingConfig
from repro.sim.engine import Simulator
from repro.synthesis.budget import BudgetRange
from repro.synthesis.generator import SynthesisConfig, synthesize_hints
from repro.traces.diurnal import DiurnalRate, FlashCrowdRate
from repro.traces.popularity import PopularityMix
from repro.traces.workload import (
    _KIND_FIELDS as ARRIVAL_KIND_FIELDS,
    ArrivalSpec,
    WorkloadConfig,
)
from repro.types import PercentileGrid, ResourceLimits
from repro.workflow.catalog import Workflow, intelligent_assistant
from tests.conftest import make_function
from tests.test_fuzz_arrivals import budget

NAN, INF = math.nan, math.inf

#: Every covered config class and the typed error it raises.
COVERED = {
    ArrivalSpec: TraceError,
    DiurnalRate: TraceError,
    FlashCrowdRate: TraceError,
    WorkloadConfig: TraceError,
    ClusterConfig: ClusterError,
    FaultSpec: ClusterError,
    FleetConfig: ExperimentError,
    ServingConfig: ExperimentError,
    Scenario: ExperimentError,
    ScenarioMatrix: ExperimentError,
    SynthesisConfig: SynthesisError,
    ProfilerConfig: ProfileError,
}
#: Model and grid types on the same schema; their cross-field rules (a
#: range's upper end above its lower one) keep their own messages.
MODELS = {
    FunctionModel: FunctionModelError,
    FixedWorkset: FunctionModelError,
    UniformIntWorkset: FunctionModelError,
    LogUniformWorkset: FunctionModelError,
    LognormalWorkset: FunctionModelError,
    Workflow: WorkflowError,
    BudgetRange: SynthesisError,
    ResourceLimits: ConfigError,
    PercentileGrid: ConfigError,
    PopularityMix: TraceError,
    _Coeff: ClusterError,
}

S = ["sweep", "--workflows", "IA", "--policies", "Janus", "--requests", "30",
     "--samples", "300", "--arrivals", "poisson@8", "--jobs", "1",
     "--no-cache"]
V = ["serve", "--samples", "300"]


def api_error(error, build) -> str:
    with budget(60.0), pytest.raises(error) as exc:
        build()
    return str(exc.value)


def cli_message(cli_error, argv) -> str:
    with budget(60.0):
        return cli_error(argv)


# -- regression cases: hangs, silent accepts, late or misleading errors ------

#: ``(CLI argv, error, API build, the Class.field the message names)``.
CASES = [
    # Hung: the autoscaler's DES loop never advanced the clock.
    (S + ["--executor", "cluster", "--cluster-config",
          "autoscaler_interval_ms=1e-300"], ClusterError,
     lambda: parse_cluster_config("autoscaler_interval_ms=1e-300"),
     "ClusterConfig.autoscaler_interval_ms"),
    # Hung: the serve loop compared the clock against nan.
    (V + ["--max-seconds", "nan"], ExperimentError,
     lambda: ServingConfig(max_seconds=NAN, samples=300),
     "ServingConfig.max_seconds"),
    # Accepted, exit 0.
    (S + ["--executor", "cluster", "--cluster-config", "keepalive_ms=nan"],
     ClusterError, lambda: ClusterConfig(keepalive_ms=NAN),
     "ClusterConfig.keepalive_ms"),
    (S + ["--executor", "cluster", "--cluster-config",
          "autoscaler_interval_ms=inf"], ClusterError,
     lambda: ClusterConfig(autoscaler_interval_ms=INF),
     "ClusterConfig.autoscaler_interval_ms"),
    (S + ["--fleet", "regions=3,routing=weighted,weights=1:nan:1"],
     ExperimentError,
     lambda: FleetConfig(routing="weighted", weights=(1.0, NAN, 1.0)),
     "FleetConfig.weights[1]"),
    (V + ["--max-requests", "40", "--time-scale", "nan"], ExperimentError,
     lambda: ServingConfig(max_requests=40, time_scale=NAN, samples=300),
     "ServingConfig.time_scale"),
    # Failed inside the cell: "non-monotonic sample time".
    (S + ["--executor", "cluster", "--cluster-config",
          "autoscaler_interval_ms=nan"], ClusterError,
     lambda: ClusterConfig(autoscaler_interval_ms=NAN),
     "ClusterConfig.autoscaler_interval_ms"),
    # Failed inside the cell, after profiling, without the field name.
    (S + ["--executor", "cluster", "--cluster-config", "warm_pool_size=-1"],
     ClusterError, lambda: ClusterConfig(warm_pool_size=-1),
     "ClusterConfig.warm_pool_size"),
    # Both blamed the RTT table's diagonal.
    (S + ["--fleet", "regions=3,rtt=nan"], ExperimentError,
     lambda: FleetConfig(rtt_ms=NAN), "FleetConfig.rtt_ms"),
    (S + ["--fleet", "regions=3,rtt=inf"], ExperimentError,
     lambda: FleetConfig(rtt_ms=INF), "FleetConfig.rtt_ms"),
    # Constructed, then failed at expand().
    (S + ["--tenants", "1,0"], ExperimentError,
     lambda: ScenarioMatrix(workflows=("IA",), tenant_counts=(1, 0),
                            policies=("Janus",)),
     "ScenarioMatrix.tenant_counts[1]"),
    (S + ["--tenants", "-2"], ExperimentError,
     lambda: ScenarioMatrix(workflows=("IA",), tenant_counts=(-2,),
                            policies=("Janus",)),
     "ScenarioMatrix.tenant_counts[0]"),
    (S + ["--slo-scales", "nan"], ExperimentError,
     lambda: ScenarioMatrix(workflows=("IA",), slo_scales=(NAN,),
                            policies=("Janus",)),
     "ScenarioMatrix.slo_scales[0]"),
]


@pytest.mark.parametrize(
    "argv,error,build,knob", CASES, ids=[" ".join(c[0][-2:]) for c in CASES]
)
def test_case_fails_fast_naming_its_knob(argv, error, build, knob, cli_error):
    message = api_error(error, build)
    assert message.startswith(f"{knob} must be "), message
    assert cli_message(cli_error, argv) == message


def test_fractional_tenant_count_is_rejected_not_truncated():
    # expand() used to run int(1.5) and serve one tenant. (The CLI never
    # builds it: `--tenants 1.5` is not an integer token.)
    message = api_error(ExperimentError, lambda: ScenarioMatrix(
        workflows=("IA",), tenant_counts=(1.5,), policies=("Janus",)))
    assert message == (
        "ScenarioMatrix.tenant_counts[0] must be an integer >= 1, got 1.5"
    )


def test_unbounded_fault_schedule_fails_before_compiling():
    # Hung in compile_fault_schedule: finite, but horizon x rate is ~1e300.
    spec = parse_fault("preempt@1e300")
    with budget(5.0), pytest.raises(
        ClusterError, match=r"FaultSpec\.rate_per_min=1e\+300 expects"
    ):
        compile_fault_schedule(spec, 1, 4, 60_000.0)
    straggler = FaultSpec(kind="straggler", interval_ms=1e-300)
    with budget(5.0), pytest.raises(
        ClusterError, match=r"FaultSpec\.interval_ms=1e-300 expects"
    ):
        compile_fault_schedule(straggler, 1, 4, 60_000.0)
    # The budget is horizon x rate: one rate, two horizons.
    busy = FaultSpec(kind="preempt", rate_per_min=MAX_EXPECTED_FAULT_EVENTS)
    with pytest.raises(ClusterError, match="expects 1.5e\\+05 preempt events"):
        compile_fault_schedule(busy, 1, 4, 90_000.0)
    assert compile_fault_schedule(busy, 1, 4, 6_000.0)


def test_unbounded_fault_schedule_cell_fails_like_the_cli(cli_error):
    # The bound needs the run horizon, so this one fails inside its cell,
    # before the compiler's loop.
    argv = S + ["--executor", "cluster", "--faults", "preempt@1e300"]
    matrix = ScenarioMatrix(
        workflows=("IA",), policies=("Janus",), n_requests=30, samples=300,
        arrivals=(parse_arrival("poisson@8"),), slo_scales=(1.0, 1.25),
        tenant_counts=(1, 2), executors=("cluster",),
        faults=(parse_fault("preempt@1e300"),),
    )
    message = api_error(ExperimentError, lambda: evaluate_cell(matrix.expand()[0]))
    assert "FaultSpec.rate_per_min=1e+300 expects" in message
    assert cli_message(cli_error, argv) == message


def test_synthesis_weight_fails_before_synthesis(tmp_path, cli_error):
    # Reported "no feasible budget in [686, 4060] for suffix 0 (OD)".
    workflow = intelligent_assistant()
    profiles = profile_workflow(workflow, seed=3, samples=300)
    path = tmp_path / "ia.json"
    save_profile_set(profiles, str(path))
    message = api_error(
        SynthesisError,
        lambda: synthesize_hints(profiles, workflow.chain, weight=NAN),
    )
    assert message == "SynthesisConfig.weight must be finite and > 0, got nan"
    argv = ["synthesize", str(path), "--out", str(tmp_path / "h.json"),
            "--weight", "nan"]
    assert cli_message(cli_error, argv) == message
    assert not (tmp_path / "h.json").exists()


@pytest.mark.parametrize("given,missing", [("--tmin", "--tmax"),
                                           ("--tmax", "--tmin")])
def test_synthesize_rejects_a_lone_budget_bound(tmp_path, capsys, given, missing):
    from repro.cli import main

    argv = ["synthesize", str(tmp_path / "ia.json"), "--out",
            str(tmp_path / "h.json"), given, "500"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"synthesize needs {missing} too" in capsys.readouterr().err


def test_autoscaler_interval_floor():
    assert ClusterConfig(autoscaler_interval_ms=1.0).autoscaler_interval_ms == 1.0
    for value in (0.999, 0.0, -1.0):
        with pytest.raises(ClusterError, match="autoscaler_interval_ms must be"):
            ClusterConfig(autoscaler_interval_ms=value)


def test_rtt_table_must_stay_finite():
    # Each hop is finite, but eight regions sit up to four hops apart.
    assert FleetConfig(regions=("a", "b", "c"), rtt_ms=1e308).topology()
    with pytest.raises(ExperimentError, match=r"FleetConfig\.rtt_ms=1e\+308"):
        parse_fleet("regions=8,rtt=1e308")


def test_optional_knobs_take_none_and_required_ones_do_not():
    assert ClusterConfig(keepalive_ms=None).keepalive_ms is None
    assert ServingConfig(max_requests=None, max_seconds=INF).max_seconds == INF
    with pytest.raises(ClusterError, match="ClusterConfig.n_vms must be"):
        ClusterConfig(n_vms=None)
    with pytest.raises(ExperimentError, match="ServingConfig.slo_scale must be"):
        ServingConfig(max_requests=4, slo_scale=None)
    with pytest.raises(TraceError, match="ArrivalSpec.rate_per_s must be"):
        ArrivalSpec(kind="poisson", rate_per_s="8")


# -- the schema itself --------------------------------------------------------


def _numeric_hint(hint) -> tuple[type | None, bool]:
    """``(int or float, else None; whether Optional)`` for a type hint."""
    args = typing.get_args(hint)
    if isinstance(hint, types.UnionType) or typing.get_origin(hint) is typing.Union:
        rest = [a for a in args if a is not type(None)]
        base = rest[0] if rest in ([int], [float]) else None
        return base, len(rest) < len(args)
    return (hint if hint in (int, float) else None), False


@pytest.mark.parametrize("cls", {**COVERED, **MODELS}, ids=lambda c: c.__name__)
def test_every_numeric_field_declares_a_domain(cls):
    hints = typing.get_type_hints(cls)
    knobs = declared(cls)
    numeric = [
        (field.name, *_numeric_hint(hints[field.name]))
        for field in dataclasses.fields(cls)
    ]
    numeric = [entry for entry in numeric if entry[1] is not None]
    assert numeric
    for name, base, optional in numeric:
        assert name in knobs, f"{cls.__name__}.{name} declares no domain"
        domain, _ = knobs[name]
        assert domain.optional == optional, f"{cls.__name__}.{name}"
        assert domain.integer == (base is int), f"{cls.__name__}.{name}"


def test_constructor_knobs_share_the_config_domains():
    cluster = declared(ClusterConfig)
    serving = declared(ServingConfig)
    assert cluster["autoscaler_interval_ms"][0] is HorizontalAutoscaler.KNOBS["interval_ms"]
    assert cluster["min_warm"][0] is HorizontalAutoscaler.KNOBS["min_warm"]
    assert cluster["warm_pool_size"][0] is PoolManager.KNOBS["warm_pool_size"]
    assert cluster["keepalive_ms"][0] is PoolManager.KNOBS["keepalive_ms"]
    assert serving["miss_threshold"][0] is HitMissSupervisor.KNOBS["miss_threshold"]
    assert serving["min_samples"][0] is HitMissSupervisor.KNOBS["min_samples"]
    samples = declared(ProfilerConfig)["samples"][0]
    for cls in (ServingConfig, Scenario, ScenarioMatrix):
        assert declared(cls)["samples"][0] is samples


def _outside(domain: Domain) -> list[object]:
    edges = [NAN, INF, -INF, 0, -1, 0.0, -1.0, 1e-320, 1e308, 2.5, "1", True]
    return [v for v in edges if not domain.admits(v)]


def _constructor_cases():
    sim = Simulator()
    pool = PoolManager(sim, [VirtualMachine(0, 4000)], {"F": make_function("F")})
    return {
        HorizontalAutoscaler: (
            ClusterError, lambda **kw: HorizontalAutoscaler(sim, pool, **kw)),
        PoolManager: (ClusterError, lambda **kw: PoolManager(
            sim, [VirtualMachine(0, 4000)], {"F": make_function("F")}, **kw)),
        HitMissSupervisor: (AdapterError, lambda **kw: HitMissSupervisor(**kw)),
        OrionPolicy: (PolicyError, lambda **kw: OrionPolicy(
            intelligent_assistant(), None, **kw)),
    }


@pytest.mark.parametrize("owner", [HorizontalAutoscaler, PoolManager,
                                   HitMissSupervisor, OrionPolicy],
                         ids=lambda c: c.__name__)
def test_constructor_arguments_outside_their_domain_are_rejected(owner):
    error, build = _constructor_cases()[owner]
    for name, domain in owner.KNOBS.items():
        for value in _outside(domain):
            with pytest.raises(error, match=rf"^{owner.__name__}\.{name} must be"):
                build(**{name: value})


# -- property: every declared field, at its domain's edges --------------------

def _kind_for(kind_fields: dict, name: str) -> str:
    return next(kind for kind, names in kind_fields.items() if name in names)


#: ``cls -> build(field, value)``: a valid instance with one field replaced,
#: built with a kind that consumes the field.
BUILDERS = {
    ArrivalSpec: lambda name, v: ArrivalSpec(
        kind=_kind_for(ARRIVAL_KIND_FIELDS, name), **{name: v}),
    DiurnalRate: lambda name, v: DiurnalRate(**{
        "kind": "sinusoid", "period_s": 60.0, "base_rate_per_s": 8.0,
        "amplitude": 0.6, "phase": 0.0, name: v}),
    FlashCrowdRate: lambda name, v: FlashCrowdRate(**{
        "base": DiurnalRate.sinusoid(8.0), "multiplier": 6.0,
        "window_fraction": 0.15, name: v}),
    WorkloadConfig: lambda name, v: WorkloadConfig(**{name: v}),
    ClusterConfig: lambda name, v: ClusterConfig(**{name: v}),
    FaultSpec: lambda name, v: FaultSpec(
        kind=_kind_for(FAULT_KIND_FIELDS, name), **{name: v}),
    FleetConfig: lambda name, v: FleetConfig(
        **{name: (v, 1.0, 1.0) if name == "weights" else v}),
    ServingConfig: lambda name, v: ServingConfig(**{
        "max_requests": 40, name: (v,) if name == "percentiles" else v}),
    Scenario: lambda name, v: Scenario(**{
        "workflow": "IA", "arrival": ArrivalSpec(), "slo_scale": 1.0,
        "tenants": 1, "policies": ("Janus",), "n_requests": 10,
        "samples": 300, "seed": 1, "profile_seed": 2, name: v}),
    ScenarioMatrix: lambda name, v: ScenarioMatrix(
        workflows=("IA",), policies=("Janus",),
        **{name: (v,) if declared(ScenarioMatrix)[name][1] else v}),
    SynthesisConfig: lambda name, v: SynthesisConfig(**{name: v}),
    ProfilerConfig: lambda name, v: ProfilerConfig(**{name: v}),
    FunctionModel: lambda name, v: FunctionModel(
        **{"name": "F", "serial_ms": 50.0, "parallel_ms": 250.0, name: v}),
    FixedWorkset: lambda name, v: FixedWorkset(**{name: v}),
    UniformIntWorkset: lambda name, v: UniformIntWorkset(
        **{"lo": 1, "hi": 15, name: v}),
    LogUniformWorkset: lambda name, v: LogUniformWorkset(
        **{"lo": 5.0, "hi": 120.0, name: v}),
    LognormalWorkset: lambda name, v: LognormalWorkset(
        **{"median": 1.0, "sigma": 0.1, name: v}),
    Workflow: lambda name, v: dataclasses.replace(
        intelligent_assistant(), **{name: v}),
    BudgetRange: lambda name, v: BudgetRange(
        **{"tmin_ms": 10, "tmax_ms": 20, name: v}),
    ResourceLimits: lambda name, v: ResourceLimits(**{name: v}),
    PercentileGrid: lambda name, v: PercentileGrid(
        **{name: (v,) if name == "percentiles" else v}),
    PopularityMix: lambda name, v: PopularityMix(("IA",), **{name: v}),
    _Coeff: lambda name, v: _Coeff(**{"a": 0.1, "b": 1.0, name: v}),
}

FIELDS = [(cls, name) for cls in COVERED for name in declared(cls)]


def _inside(domain: Domain):
    if domain.integer:
        lo = int(domain.lo) if domain.lo > -INF else -(2**63)
        return st.integers(min_value=lo, max_value=lo + 10**6)
    return st.floats(
        min_value=None if domain.lo == -INF else domain.lo,
        max_value=None if domain.hi == INF else domain.hi,
        exclude_min=domain.lo_open and domain.lo > -INF,
        exclude_max=domain.hi_open and domain.hi < INF,
        allow_nan=False,
        allow_infinity=domain.admits(INF),
    )


def _edges(domain: Domain):
    bounds = [b for b in (domain.lo, domain.hi) if math.isfinite(b)]
    return st.one_of(
        st.sampled_from([NAN, INF, -INF, 0, -1, 0.0, -1.0, 1e-320, 1e308]
                        + bounds),
        _inside(domain),
    )


def test_every_covered_class_has_a_builder():
    assert set(BUILDERS) == set(COVERED) | set(MODELS)


@pytest.mark.parametrize(
    "cls,name", [(c, n) for c in {**COVERED, **MODELS} for n in declared(c)],
    ids=lambda v: v if isinstance(v, str) else v.__name__,
)
def test_out_of_domain_values_fail_naming_the_field(cls, name):
    domain, _ = declared(cls)[name]
    error = {**COVERED, **MODELS}[cls]
    for value in _outside(domain):
        if (cls, name) == (WorkloadConfig, "n_requests") and (
            isinstance(value, float) and value.is_integer()
        ):
            continue  # an integral float request count is converted first
        with pytest.raises(error, match=rf"^{cls.__name__}\.{name}(\[0\])? must be"):
            BUILDERS[cls](name, value)


@pytest.mark.parametrize(
    "cls,name", FIELDS, ids=[f"{c.__name__}.{n}" for c, n in FIELDS]
)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_edge_values_construct_or_fail_naming_the_field(cls, name, data):
    domain, _ = declared(cls)[name]
    label = f"{cls.__name__}.{name}"
    value = data.draw(_edges(domain), label=label)
    with budget():
        try:
            BUILDERS[cls](name, value)
            message = None
        except COVERED[cls] as exc:
            message = str(exc)
    if message is not None:
        assert label in message, message
    if domain.admits(value):  # only a postcondition may still refuse it
        assert message is None or f"{label} must be" not in message, message
    elif (cls, name) != (WorkloadConfig, "n_requests") or not (
        isinstance(value, float) and value.is_integer()
    ):  # an integral float request count is converted first
        assert message is not None and " must be " in message, value
