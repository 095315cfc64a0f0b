"""The arrival generators and the serving request draw that the arrival
engine replaced, kept verbatim as references for the parity tests.

Sweeps drew arrivals with one batch function per kind (``*_arrivals``
below, dispatched by :func:`batch_timestamps`), serving drew them with
its own unbounded generators (:func:`arrival_source`,
:func:`fleet_arrival_source`). :func:`serving_requests` draws each served
request's dynamics one scalar draw at a time: per stage, a workset from
its workset stream and a normal from its noise stream.
``tests/test_arrival_engine.py`` holds :mod:`repro.traces.arrivals` and
the serving loop to these bit for bit.
"""

from __future__ import annotations

import heapq
import typing as _t

import numpy as np

from repro.errors import TraceError
from repro.functions.model import InvocationDynamics
from repro.rng import RngFactory
from repro.traces.diurnal import DiurnalRate, FlashCrowdRate, RateCurve
from repro.traces.trace_file import WorkloadTrace, cached_trace
from repro.traces.workload import ArrivalSpec
from repro.workflow.catalog import Workflow
from repro.workflow.request import WorkflowRequest

# -- the batch functions behind ArrivalSpec.timestamps ----------------------


def poisson_arrivals(rate_per_s: float, n: int, rng: np.random.Generator) -> np.ndarray:
    if rate_per_s <= 0:
        raise TraceError(f"rate must be > 0, got {rate_per_s}")
    if n <= 0:
        raise TraceError(f"n must be > 0, got {n}")
    gaps_ms = rng.exponential(1000.0 / rate_per_s, size=n)
    return np.cumsum(gaps_ms)


def constant_arrivals(interval_ms: float, n: int) -> np.ndarray:
    if interval_ms < 0:
        raise TraceError(f"interval must be >= 0, got {interval_ms}")
    if n <= 0:
        raise TraceError(f"n must be > 0, got {n}")
    return np.arange(n, dtype=np.float64) * interval_ms


def burst_arrivals(
    base_rate_per_s: float,
    burst_rate_per_s: float,
    burst_fraction: float,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    if not 0.0 <= burst_fraction <= 1.0:
        raise TraceError(f"burst fraction must be in [0, 1]: {burst_fraction}")
    if base_rate_per_s <= 0 or burst_rate_per_s <= 0:
        raise TraceError("rates must be > 0")
    if n <= 0:
        raise TraceError(f"n must be > 0, got {n}")
    in_burst = rng.random(n) < burst_fraction
    rates = np.where(in_burst, burst_rate_per_s, base_rate_per_s)
    gaps_ms = rng.exponential(1000.0 / rates)
    return np.cumsum(gaps_ms)


def nhpp_arrivals(curve: RateCurve, n: int, rng: np.random.Generator) -> np.ndarray:
    if n <= 0:
        raise TraceError(f"n must be > 0, got {n}")
    peak = curve.peak_rate
    if not 0.0 < peak < np.inf:
        raise TraceError(f"peak rate must be finite and > 0, got {peak}")
    out = np.empty(n, dtype=np.float64)
    filled = 0
    t_ms = 0.0
    while filled < n:
        m = max(128, 2 * (n - filled))
        gaps_ms = rng.exponential(1000.0 / peak, size=m)
        candidates = t_ms + np.cumsum(gaps_ms)
        u = rng.random(m)
        accepted = candidates[u * peak < curve.rate_at(candidates / 1000.0)]
        take = min(accepted.size, n - filled)
        out[filled : filled + take] = accepted[:take]
        filled += take
        t_ms = float(candidates[-1])
    return out


def storm_arrivals(
    rate_per_s: float,
    multiplier: float,
    window_fraction: float,
    n: int,
    rng: np.random.Generator,
    amplitude: float = 0.0,
    period_s: float = 60.0,
    phase: float = 0.0,
) -> np.ndarray:
    base = DiurnalRate.sinusoid(rate_per_s, amplitude, period_s, phase)
    crowd = FlashCrowdRate(base, multiplier, window_fraction)
    return nhpp_arrivals(crowd, n, rng)


def azure_like_arrivals(
    rate_per_s: float, n: int, rng: np.random.Generator, sigma: float = 1.5
) -> np.ndarray:
    if rate_per_s <= 0:
        raise TraceError(f"rate must be > 0, got {rate_per_s}")
    if n <= 0:
        raise TraceError(f"n must be > 0, got {n}")
    if sigma < 0:
        raise TraceError(f"sigma must be >= 0, got {sigma}")
    z = rng.standard_normal(n)
    gaps_ms = np.exp(sigma * z - 0.5 * sigma * sigma) * (1000.0 / rate_per_s)
    return np.cumsum(gaps_ms)


def replay_arrivals(
    trace: WorkloadTrace, n: int, workflow: str | None = None
) -> np.ndarray:
    if n <= 0:
        raise TraceError(f"n must be > 0, got {n}")
    arrivals = trace.arrivals_for(workflow)
    if arrivals.size == 0:
        raise TraceError(
            f"trace {trace.name!r} has no records"
            + (f" for workflow {workflow!r}" if workflow else "")
        )
    m = int(arrivals.size)
    if n <= m:
        return arrivals[:n]
    if m == 1:
        raise TraceError(
            f"cannot extend the single-record stream of trace "
            f"{trace.name!r}"
            + (f" (workflow {workflow!r})" if workflow else "")
            + f" to {n} arrivals — wrap-around needs >= 2 records"
        )
    span = float(arrivals[-1] - arrivals[0])
    mean_gap = span / (m - 1)
    period = span + mean_gap
    idx = np.arange(n, dtype=np.int64)
    return arrivals[idx % m] + (idx // m) * period


def batch_timestamps(
    spec: ArrivalSpec,
    n: int,
    rng: np.random.Generator,
    workflow: str | None = None,
) -> np.ndarray:
    """``ArrivalSpec.timestamps``'s own dispatch over kinds."""
    if spec.kind == "constant":
        return constant_arrivals(spec.interval_ms, n)
    if spec.kind == "poisson":
        return poisson_arrivals(spec.rate_per_s, n, rng)
    if spec.kind == "burst":
        burst_rate = (
            spec.burst_rate_per_s
            if spec.burst_rate_per_s is not None
            else 10.0 * spec.rate_per_s
        )
        return burst_arrivals(spec.rate_per_s, burst_rate, spec.burst_fraction, n, rng)
    if spec.kind == "diurnal":
        curve = DiurnalRate.sinusoid(
            spec.rate_per_s, spec.amplitude, spec.period_s, spec.phase
        )
        return nhpp_arrivals(curve, n, rng)
    if spec.kind == "replay":
        return replay_arrivals(cached_trace(spec.trace), n, workflow)
    if spec.kind == "storm":
        return storm_arrivals(
            spec.rate_per_s,
            spec.storm_multiplier,
            spec.storm_fraction,
            n,
            rng,
            amplitude=spec.amplitude,
            period_s=spec.period_s,
            phase=spec.phase,
        )
    return azure_like_arrivals(spec.rate_per_s, n, rng, sigma=spec.sigma)


# -- the serving loop's unbounded sources -----------------------------------

CHUNK = 512


def _poisson_gaps(rate_per_s: float, rng: np.random.Generator) -> _t.Iterator[float]:
    t = 0.0
    mean_gap_ms = 1000.0 / rate_per_s
    while True:
        for gap in rng.exponential(mean_gap_ms, size=CHUNK):
            t += float(gap)
            yield t


def _constant(interval_ms: float) -> _t.Iterator[float]:
    i = 0
    while True:
        yield i * interval_ms
        i += 1


def _burst(
    base_rate: float, burst_rate: float, fraction: float, rng: np.random.Generator
) -> _t.Iterator[float]:
    t = 0.0
    while True:
        in_burst = rng.random(CHUNK) < fraction
        rates = np.where(in_burst, burst_rate, base_rate)
        for gap in rng.exponential(1000.0 / rates):
            t += float(gap)
            yield t


def _azure(rate_per_s: float, sigma: float, rng: np.random.Generator) -> _t.Iterator[float]:
    t = 0.0
    mean_gap_ms = 1000.0 / rate_per_s
    while True:
        z = rng.standard_normal(CHUNK)
        gaps = np.exp(sigma * z - 0.5 * sigma * sigma) * mean_gap_ms
        for gap in gaps:
            t += float(gap)
            yield t


def _nhpp(curve: RateCurve, rng: np.random.Generator) -> _t.Iterator[float]:
    peak = curve.peak_rate
    t_ms = 0.0
    while True:
        gaps_ms = rng.exponential(1000.0 / peak, size=CHUNK)
        candidates = t_ms + np.cumsum(gaps_ms)
        u = rng.random(CHUNK)
        accepted = candidates[u * peak < curve.rate_at(candidates / 1000.0)]
        t_ms = float(candidates[-1])
        for ts in accepted:
            yield float(ts)


def _replay(trace_path: str, workflow: str | None) -> _t.Iterator[float]:
    trace = cached_trace(trace_path)
    arrivals = trace.arrivals_for(workflow)
    if arrivals.size == 0:
        raise TraceError(
            f"trace {trace.name!r} has no records"
            + (f" for workflow {workflow!r}" if workflow else "")
        )
    m = int(arrivals.size)
    if m == 1:
        raise TraceError(
            f"cannot serve forever from the single-record trace "
            f"{trace.name!r} — wrap-around needs >= 2 records"
        )
    span = float(arrivals[-1] - arrivals[0])
    period = span + span / (m - 1)
    i = 0
    while True:
        yield float(arrivals[i % m]) + (i // m) * period
        i += 1


def arrival_source(
    spec: ArrivalSpec, rng: np.random.Generator, workflow: str | None = None
) -> _t.Iterator[float]:
    if spec.kind == "constant":
        return _constant(spec.interval_ms)
    if spec.kind == "poisson":
        return _poisson_gaps(spec.rate_per_s, rng)
    if spec.kind == "burst":
        burst_rate = (
            spec.burst_rate_per_s
            if spec.burst_rate_per_s is not None
            else 10.0 * spec.rate_per_s
        )
        return _burst(spec.rate_per_s, burst_rate, spec.burst_fraction, rng)
    if spec.kind == "azure":
        return _azure(spec.rate_per_s, spec.sigma, rng)
    if spec.kind == "diurnal":
        curve = DiurnalRate.sinusoid(
            spec.rate_per_s, spec.amplitude, spec.period_s, spec.phase
        )
        return _nhpp(curve, rng)
    if spec.kind == "replay":
        return _replay(spec.trace, workflow)
    crowd = FlashCrowdRate(
        DiurnalRate.sinusoid(spec.rate_per_s, spec.amplitude, spec.period_s, spec.phase),
        spec.storm_multiplier,
        spec.storm_fraction,
    )
    return _nhpp(crowd, rng)


def fleet_arrival_source(
    specs: _t.Sequence[ArrivalSpec],
    rngs: _t.Sequence[np.random.Generator],
    workflow: str | None = None,
) -> _t.Iterator[tuple[float, int]]:
    def _tag(stream: _t.Iterator[float], region: int) -> _t.Iterator[tuple[float, int]]:
        for t in stream:
            yield t, region

    return heapq.merge(
        *(
            _tag(arrival_source(spec, rng, workflow), region)
            for region, (spec, rng) in enumerate(zip(specs, rngs))
        )
    )


# -- the serving loop's draw, one request at a time -------------------------


def serving_requests(
    workflow: Workflow,
    seed: int,
    slo_ms: float,
    arrivals: _t.Iterable[float],
    workset_schedule: tuple[tuple[int, float], ...] = (),
) -> list[WorkflowRequest]:
    """The requests the serving loop builds for ``arrivals``: per stage per
    request, one scalar workset draw and one normal from the stage's two
    streams, the workset scaled by the drift schedule in force at the
    request's index."""
    factory = RngFactory(seed).fork("serving", workflow.name)
    stage_rngs = {
        name: (
            factory.stream("dynamics", name, "workset"),
            factory.stream("dynamics", name, "noise"),
        )
        for name in workflow.dag.nodes
    }
    out = []
    for index, arrival_ms in enumerate(arrivals):
        scale = 1.0
        for after_n, s in workset_schedule:
            if index >= after_n:
                scale = s
        dynamics = {}
        for name in workflow.dag.nodes:
            workset_rng, noise_rng = stage_rngs[name]
            workset = float(workflow.model(name).workset.sample(workset_rng))
            dynamics[name] = InvocationDynamics(
                workset * scale,
                float(noise_rng.standard_normal()),
            )
        out.append(
            WorkflowRequest(
                request_id=index,
                arrival_ms=arrival_ms,
                slo_ms=slo_ms,
                stage_dynamics=dynamics,
                concurrency=1,
                workflow=workflow.name,
            )
        )
    return out
