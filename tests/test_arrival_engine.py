"""The arrival engine against the generators it replaced, bit for bit.

:mod:`repro.traces.arrivals` draws every arrival kind for sweeps
(``ArrivalSpec.timestamps``) and serving (``ArrivalSpec.stream``). The
batch functions, serving sources and per-request serving draw it
replaced live on in ``arrival_references``; here the engine must match
them in value bits and in the generator state it leaves behind, across
chunk edges (127/128/129 for a thinning round, 511/512/513 for a stream
chunk, 2047/2048/2049 for a dynamics chunk).
"""

from __future__ import annotations

import asyncio
import itertools
import pickle

import numpy as np
import pytest

import arrival_references as ref
from repro.errors import TraceError
from repro.fleet import fleet_arrival_source, parse_fleet, region_arrival
from repro.profiling.profiler import profile_workflow
from repro.rng import RngFactory, derive_rng
from repro.scenarios.matrix import parse_fault
from repro.scenarios.registry import scenario_workflow
from repro.serving import ServingConfig, ServingLoop
from repro.traces.arrivals import CHUNK
from repro.traces.diurnal import DiurnalRate, FlashCrowdRate, nhpp_arrivals
from repro.traces.trace_file import (
    WorkloadTrace,
    generate_workload_trace,
    replay_arrivals,
    save_trace,
)
from repro.traces.workload import ArrivalSpec
from repro.workflow.request import DEFAULT_STREAM_CHUNK

#: Both constant, poisson, two azure, two burst, two diurnal, two storm.
SPECS = [
    ArrivalSpec(kind="constant", interval_ms=0.0),
    ArrivalSpec(kind="constant", interval_ms=37.3),
    ArrivalSpec(kind="poisson", rate_per_s=8.0),
    ArrivalSpec(kind="azure", rate_per_s=8.0),
    ArrivalSpec(kind="azure", rate_per_s=120.0, sigma=0.4),
    ArrivalSpec(kind="burst", rate_per_s=8.0),
    ArrivalSpec(kind="burst", rate_per_s=20.0, burst_rate_per_s=90.0,
                burst_fraction=0.4),
    ArrivalSpec(kind="diurnal", rate_per_s=8.0),
    ArrivalSpec(kind="diurnal", rate_per_s=50.0, amplitude=1.0,
                period_s=7.0, phase=2.0),
    ArrivalSpec(kind="storm", rate_per_s=8.0, amplitude=0.0),
    ArrivalSpec(kind="storm", rate_per_s=20.0, storm_multiplier=12.0,
                storm_fraction=0.3, period_s=5.0, phase=1.0),
]
SIZES = [1, 2, 127, 128, 129, 511, 512, 513, 1024, 2047, 2048, 2049, 10_000]
SEEDS = range(4)


def same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def rng(seed: int, *path: str) -> np.random.Generator:
    return derive_rng(seed, "arrival-engine", *path)


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.label)
def test_batch_timestamps_match_the_batch_functions(spec):
    for seed, n in itertools.product(SEEDS, SIZES):
        got_rng, want_rng = rng(seed), rng(seed)
        same_bits(spec.timestamps(n, got_rng), ref.batch_timestamps(spec, n, want_rng))
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.label)
def test_stream_matches_the_serving_source(spec):
    # Several chunks deep, ending off a chunk edge; the generator state
    # must match too, so chunk draws happen at the same points.
    n = 5 * CHUNK + 7
    for seed in SEEDS:
        got_rng, want_rng = rng(seed), rng(seed)
        got = list(itertools.islice(spec.stream(got_rng), n))
        want = list(itertools.islice(ref.arrival_source(spec, want_rng), n))
        assert all(type(t) is float for t in got)
        same_bits(np.array(got), np.array(want))
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize(
    "spec",
    [s for s in SPECS if s.kind in ("constant", "poisson", "azure")],
    ids=lambda spec: spec.label,
)
def test_single_draw_kinds_stream_their_batch_prefix(spec):
    # One distribution per chunk: chunked draws are one long draw, so the
    # stream starts with the batch timestamps (burst and the NHPP kinds
    # interleave two draws per chunk and differ).
    for n in (1, 511, 512, 513, 3000):
        batch = spec.timestamps(n, rng(9))
        streamed = list(itertools.islice(spec.stream(rng(9)), n))
        same_bits(np.array(streamed), batch)


PIECEWISE = [
    DiurnalRate.piecewise(((0.0, 5.0), (3.0, 40.0)), period_s=8.0),
    DiurnalRate.piecewise(((0.0, 0.0), (1.0, 12.0), (2.5, 3.0)), period_s=4.0),
    FlashCrowdRate(
        DiurnalRate.piecewise(((0.0, 2.0), (5.0, 9.0)), period_s=10.0), 4.0, 0.2
    ),
]


@pytest.mark.parametrize("curve", PIECEWISE, ids=["two-step", "dark-step", "storm"])
def test_nhpp_arrivals_on_arbitrary_curves(curve):
    for seed, n in itertools.product(SEEDS, SIZES):
        got_rng, want_rng = rng(seed, "pw"), rng(seed, "pw")
        same_bits(nhpp_arrivals(curve, n, got_rng), ref.nhpp_arrivals(curve, n, want_rng))
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


# -- replay ---------------------------------------------------------------


def _outcome(draw):
    try:
        return draw()
    except TraceError as exc:
        return exc


def _traces(tmp_path) -> list[tuple[str, WorkloadTrace]]:
    # A 7-record trace whose "media" sub-stream is one record and whose
    # "ETL" sub-stream is empty, plus two synthetic traces.
    small = WorkloadTrace(
        name="seven",
        arrival_ms=np.array([0.0, 3.5, 4.0, 9.25, 11.0, 30.0, 31.5]),
        workflow_ids=np.array([0, 1, 0, 2, 0, 1, 0]),
        workflows=("IA", "VA", "media", "ETL"),
    )
    traces = [
        generate_workload_trace(["IA", "VA", "media"], 300, seed=5, name="t300"),
        small,
        generate_workload_trace(["IA"], 1000, seed=6, name="t1000"),
    ]
    out = []
    for trace in traces:
        path = tmp_path / f"{trace.name}.jsonl"
        save_trace(trace, path)
        out.append((str(path), trace))
    return out


def test_replay_matches_reference_values_and_errors(tmp_path):
    for path, trace in _traces(tmp_path):
        spec = ArrivalSpec(kind="replay", trace=path)
        for workflow in (None, *trace.workflows):
            for n in (1, 6, 7, 8, 299, 300, 301, 511, 512, 513, 1000, 1001, 5000):
                got = _outcome(lambda: spec.timestamps(n, None, workflow))
                want = _outcome(lambda: ref.batch_timestamps(spec, n, None, workflow))
                direct = _outcome(lambda: replay_arrivals(trace, n, workflow))
                if isinstance(want, TraceError):
                    assert type(got) is type(direct) is TraceError
                    assert str(got) == str(direct) == str(want)
                    continue
                same_bits(got, want)
                same_bits(direct, want)
            streamed = _outcome(
                lambda: list(itertools.islice(spec.stream(None, workflow), 5000))
            )
            wanted = _outcome(
                lambda: list(itertools.islice(ref.arrival_source(spec, None, workflow), 5000))
            )
            if isinstance(wanted, TraceError):
                assert type(streamed) is TraceError
                continue
            same_bits(np.array(streamed), np.array(wanted))


def test_replay_stream_errors_name_the_trace(tmp_path):
    (_, _), (path, _), _ = _traces(tmp_path)
    spec = ArrivalSpec(kind="replay", trace=path)
    with pytest.raises(TraceError, match="single-record stream of trace 'seven'"):
        next(spec.stream(None, "media"))
    with pytest.raises(TraceError, match="no records for workflow 'ETL'"):
        next(spec.stream(None, "ETL"))
    # A single record replays as it is while no wrap-around is needed.
    np.testing.assert_array_equal(spec.timestamps(1, None, "media"), [9.25])


def test_fleet_merged_stream_matches_the_serving_source():
    for spec in (SPECS[4], SPECS[8], SPECS[10]):
        specs = [region_arrival(spec, r, 3) for r in range(3)]
        got = fleet_arrival_source(specs, [rng(r, "fleet") for r in range(3)], "IA")
        want = ref.fleet_arrival_source(specs, [rng(r, "fleet") for r in range(3)], "IA")
        assert list(itertools.islice(got, 3000)) == list(itertools.islice(want, 3000))


def test_fleet_source_wants_one_rng_per_region():
    with pytest.raises(TraceError, match="one rng per region"):
        fleet_arrival_source([SPECS[2]] * 2, [rng(0)])


# -- serving rows -----------------------------------------------------------


@pytest.fixture(scope="module")
def ia_profiles():
    return profile_workflow(scenario_workflow("IA"), seed=0, samples=200)


def served(config: ServingConfig, profiles) -> tuple[ServingLoop, list]:
    """Run ``config`` and return the loop with every request it served."""
    loop = ServingLoop(config, profiles=profiles)
    requests, serve = [], loop._serve

    async def spy(request, rtt_ms=0.0):
        requests.append(request)
        await serve(request, rtt_ms)

    loop._serve = spy
    asyncio.run(loop.run())
    return loop, requests


def reference_arrivals(loop: ServingLoop, config: ServingConfig, n: int) -> list[float]:
    factory = RngFactory(config.seed).fork("serving", loop.workflow.name)
    if config.fleet is None:
        source = ref.arrival_source(loop.effective_source, factory.stream("arrivals"), "IA")
        return list(itertools.islice(source, n))
    regions = config.fleet.regions
    specs = [region_arrival(loop.effective_source, r, len(regions)) for r in range(len(regions))]
    rngs = [
        factory.stream("arrivals") if r == 0 else factory.stream("region", name, "arrivals")
        for r, name in enumerate(regions)
    ]
    merged = ref.fleet_arrival_source(specs, rngs, "IA")
    return [t for t, _ in itertools.islice(merged, n)]


@pytest.mark.parametrize(
    "overrides",
    [
        dict(workset_schedule=((DEFAULT_STREAM_CHUNK - 1, 3.0),)),
        dict(workset_schedule=((5, 1.5), (DEFAULT_STREAM_CHUNK, 2.0))),
        dict(workset_schedule=((DEFAULT_STREAM_CHUNK + 1, 0.5),),
             source=ArrivalSpec(kind="burst", rate_per_s=30.0)),
        dict(fleet=parse_fleet("regions=3,routing=spillover,capacity=4"),
             faults=parse_fault("region-failover@2000"),
             workset_schedule=((2048, 2.5),)),
        dict(faults=parse_fault("storm@6"), workset_schedule=((2047, 4.0),)),
    ],
    ids=["drift@2047", "drift@5,2048", "drift@2049-burst", "fleet-3", "storm"],
)
def test_serving_rows_match_the_per_request_draw(overrides, ia_profiles):
    n = DEFAULT_STREAM_CHUNK + 60
    config = ServingConfig(**{
        "workflow": "IA", "policy": "GrandSLAM", "seed": 3, "samples": 200,
        "max_requests": n, "source": ArrivalSpec(kind="diurnal", rate_per_s=40.0),
        **overrides,
    })
    loop, got = served(config, ia_profiles)
    want = ref.serving_requests(
        loop.workflow, config.seed, loop.slo_ms,
        reference_arrivals(loop, config, n), config.workset_schedule,
    )
    assert len(got) == len(want) == n
    for a, b in zip(got, want):
        assert pickle.dumps(a) == pickle.dumps(b)


def test_serving_logs_each_requests_workset_scale(ia_profiles):
    config = ServingConfig(
        workflow="IA", policy="GrandSLAM", samples=200, max_requests=40,
        workset_schedule=((10, 2.0), (30, 0.5)),
    )
    loop = ServingLoop(config, profiles=ia_profiles)
    asyncio.run(loop.run())
    scales = [e["workset_scale"] for e in loop.events.events if e["kind"] == "arrival"]
    assert scales == [1.0] * 10 + [2.0] * 20 + [0.5] * 10

