"""The arrival engine: one chunked generator per arrival kind.

:func:`arrival_chunks` draws every process an :class:`~repro.traces.
workload.ArrivalSpec` names, for both consumers. Sweeps take the first
``n`` timestamps (``ArrivalSpec.timestamps``) from chunks sized for ``n``:
one chunk of ``n``, or ``max(128, 2 * remaining)`` candidates per
thinning round for the NHPP kinds. Serving reads the process unbounded
(``ArrivalSpec.stream``) in fixed :data:`CHUNK`-sized chunks, so a seed
replays the same stream however far it is read. Constant, poisson, azure
and replay draw one distribution per chunk, so their streams start with
their batch timestamps; burst and the NHPP kinds interleave two draws and
differ. The batch rule stays because sweep draws, goldens and cache keys
rest on it. Across chunks, gap sums run on from the last timestamp, the
thinning clock carries over and replay indexes the trace by absolute
position, so chunk edges never show in the bits.
"""

from __future__ import annotations

import itertools
import math
import typing as _t

import numpy as np

from ..errors import TraceError

if _t.TYPE_CHECKING:
    from .diurnal import RateCurve
    from .trace_file import WorkloadTrace
    from .workload import ArrivalSpec

__all__ = ["CHUNK", "arrival_chunks", "first_n", "replayed", "thinned"]

#: Timestamps (or thinning candidates) per chunk of an unbounded stream.
CHUNK = 512

Chunks = _t.Iterator[np.ndarray]


def arrival_chunks(
    spec: "ArrivalSpec",
    rng: np.random.Generator,
    n: int | None = None,
    workflow: str | None = None,
) -> Chunks:
    """``spec``'s arrival timestamps (ms), a chunk at a time: sized to
    reach ``n`` arrivals, or :data:`CHUNK` each and unbounded without
    ``n``. ``workflow`` selects a replay sub-stream. A non-finite
    timestamp raises :class:`TraceError` naming the spec and the index."""
    size = CHUNK if n is None else n
    if spec.kind == "constant":
        chunks = _indexed(lambda i: i * spec.interval_ms, size)
    elif spec.kind == "poisson":
        mean_gap_ms = 1000.0 / spec.rate_per_s
        chunks = _summed(lambda m: rng.exponential(mean_gap_ms, size=m), size)
    elif spec.kind == "burst":

        def burst_gaps(m: int) -> np.ndarray:
            in_burst = rng.random(m) < spec.burst_fraction
            rates = np.where(in_burst, spec.effective_burst_rate, spec.rate_per_s)
            return rng.exponential(1000.0 / rates)

        chunks = _summed(burst_gaps, size)
    elif spec.kind == "azure":
        # E[exp(sigma z - sigma^2/2)] = 1, so the mean gap is 1000/rate.
        sigma, mean_gap_ms = spec.sigma, 1000.0 / spec.rate_per_s
        chunks = _summed(
            lambda m: np.exp(sigma * rng.standard_normal(m) - 0.5 * sigma * sigma)
            * mean_gap_ms,
            size,
        )
    elif spec.kind == "replay":
        from .trace_file import cached_trace  # trace_file imports this module

        chunks = replayed(cached_trace(spec.trace), n, workflow)
    else:
        chunks = thinned(spec.rate_curve(), rng, n, spec.label)
    start = 0
    for chunk in chunks:
        finite = np.isfinite(chunk)
        if not finite.all():
            i = int(np.argmin(finite))
            raise TraceError(
                f"arrival process {spec.label} overflowed: timestamp "
                f"{start + i} is {chunk[i]}"
            )
        start += chunk.size
        yield chunk


def first_n(chunks: Chunks, n: int) -> np.ndarray:
    """The first ``n`` timestamps of a chunk stream, as one array."""
    if n <= 0:
        raise TraceError(f"n must be > 0, got {n}")
    parts, have = [], 0
    for chunk in chunks:
        parts.append(chunk)
        have += chunk.size
        if have >= n:
            break
    return (parts[0] if len(parts) == 1 else np.concatenate(parts))[:n]


def thinned(
    curve: "RateCurve",
    rng: np.random.Generator,
    n: int | None = None,
    label: str = "NHPP",
) -> Chunks:
    """Lewis–Shedler thinning: each round draws candidates at the curve's
    peak rate (``max(128, 2 * remaining)`` of them while ``n`` arrivals are
    wanted, :data:`CHUNK` without ``n``) and keeps each with probability
    ``rate(t) / peak``. A clock that stops being finite raises instead of
    spinning on rounds that accept nothing."""
    peak = curve.peak_rate
    if not 0.0 < peak < math.inf or not 1000.0 / peak < math.inf:
        # Finite parameters can still overflow the envelope or its gap.
        raise TraceError(
            f"peak rate must be finite and > 0 with a finite mean gap, "
            f"got {peak}"
        )
    t_ms, filled = 0.0, 0
    while True:
        m = CHUNK if n is None else max(128, 2 * (n - filled))
        candidates = t_ms + np.cumsum(rng.exponential(1000.0 / peak, size=m))
        u = rng.random(m)
        accepted = candidates[u * peak < curve.rate_at(candidates / 1000.0)]
        t_ms = float(candidates[-1])
        if not math.isfinite(t_ms):
            raise TraceError(
                f"arrival process {label} overflowed: the thinning clock "
                f"is {t_ms} at timestamp {filled}"
            )
        filled += accepted.size
        yield accepted


def replayed(
    trace: "WorkloadTrace", n: int | None = None, workflow: str | None = None
) -> Chunks:
    """``trace``'s arrivals: the recorded prefix while ``n`` fits the
    record count, else wrapped around, each pass shifted by the span plus
    one mean gap so the gap structure repeats without overlaps."""
    arrivals = trace.arrivals_for(workflow)
    if arrivals.size == 0:
        raise TraceError(
            f"trace {trace.name!r} has no records"
            + (f" for workflow {workflow!r}" if workflow else "")
        )
    m = int(arrivals.size)
    if n is not None and n <= m:
        yield arrivals[:n]
        return
    if m == 1:
        # Tiling one timestamp would invent a burst the trace never had.
        raise TraceError(
            f"cannot extend the single-record stream of trace "
            f"{trace.name!r}"
            + (f" (workflow {workflow!r})" if workflow else "")
            + (f" to {n} arrivals" if n is not None else " forever")
            + " — wrap-around needs >= 2 records"
        )
    span = float(arrivals[-1] - arrivals[0])
    period = span + span / (m - 1)
    yield from _indexed(
        lambda i: arrivals[i % m] + (i // m) * period, CHUNK if n is None else n
    )


def _indexed(at: _t.Callable[[np.ndarray], np.ndarray], size: int) -> Chunks:
    for lo in itertools.count(0, size):
        yield at(np.arange(lo, lo + size))


def _summed(gaps: _t.Callable[[int], np.ndarray], size: int) -> Chunks:
    t_ms = 0.0
    while True:
        # One sequential sum on from the last timestamp: the bits of
        # ``t += gap`` per gap, and of ``np.cumsum(gaps)`` from zero.
        chunk = gaps(size)
        chunk[0] += t_ms
        chunk = np.cumsum(chunk)
        t_ms = float(chunk[-1])
        yield chunk
