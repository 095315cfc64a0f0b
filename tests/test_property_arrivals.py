"""Property tests for the arrival generators (hypothesis).

Invariants: timestamps are non-negative and sorted for every process; the
empirical rate converges to the requested (effective) rate; constant
spacing is exact.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rng import derive_rng
from repro.traces.diurnal import DiurnalRate, nhpp_arrivals
from repro.traces.workload import ArrivalSpec

rates = st.floats(min_value=0.5, max_value=200.0,
                  allow_nan=False, allow_infinity=False)
seeds = st.integers(min_value=0, max_value=2**31 - 1)

#: Large-n draws so empirical-rate checks have tight sampling error
#: (exponential mean over n=6000 has ~1.3% relative std).
N_RATE = 6000


@settings(max_examples=40, deadline=None)
@given(rate=rates, seed=seeds)
def test_poisson_sorted_nonnegative_and_rate(rate, seed):
    spec = ArrivalSpec(kind="poisson", rate_per_s=rate)
    arr = spec.timestamps(N_RATE, derive_rng(seed, "poisson"))
    assert arr.shape == (N_RATE,)
    assert np.all(arr >= 0)
    assert np.all(np.diff(arr) >= 0)
    empirical_rate = 1000.0 * N_RATE / arr[-1]
    assert empirical_rate == pytest.approx(rate, rel=0.10)


@settings(max_examples=40, deadline=None)
@given(
    base=rates,
    burst_factor=st.floats(min_value=1.0, max_value=50.0),
    fraction=st.floats(min_value=0.0, max_value=1.0),
    seed=seeds,
)
def test_burst_sorted_nonnegative_and_effective_rate(
    base, burst_factor, fraction, seed
):
    burst = base * burst_factor
    spec = ArrivalSpec(
        kind="burst", rate_per_s=base, burst_rate_per_s=burst,
        burst_fraction=fraction,
    )
    arr = spec.timestamps(N_RATE, derive_rng(seed, "burst"))
    assert np.all(arr >= 0)
    assert np.all(np.diff(arr) >= 0)
    # Mixture mean gap: f/burst + (1-f)/base, so the effective rate is its
    # reciprocal; the draw must track it, not the base rate. The mixture's
    # gap variance peaks when a rare slow component dominates (small 1-f,
    # large burst factor), so the tolerance is looser than the pure-Poisson
    # 10% — 0.12 flaked on fresh hypothesis databases (as in CI).
    effective = 1.0 / (fraction / burst + (1.0 - fraction) / base)
    empirical_rate = 1000.0 * N_RATE / arr[-1]
    assert empirical_rate == pytest.approx(effective, rel=0.2)


@settings(max_examples=60, deadline=None)
@given(
    interval=st.floats(min_value=0.0, max_value=10_000.0,
                       allow_nan=False, allow_infinity=False),
    n=st.integers(min_value=1, max_value=500),
)
def test_constant_spacing_exact(interval, n):
    arr = ArrivalSpec(kind="constant", interval_ms=interval).timestamps(n, None)
    assert arr.shape == (n,)
    assert arr[0] == 0.0
    # Exactness guarantee: the i-th arrival is bit-exactly i * interval
    # (diffs of i*x are not representable for arbitrary floats, so the
    # closed form — not np.diff — is the invariant).
    assert np.array_equal(arr, np.arange(n, dtype=np.float64) * interval)
    assert np.all(np.diff(arr) >= 0)


@settings(max_examples=40, deadline=None)
@given(
    rate=rates,
    sigma=st.floats(min_value=0.0, max_value=1.0),
    seed=seeds,
)
def test_azure_sorted_nonnegative_and_rate(rate, sigma, seed):
    spec = ArrivalSpec(kind="azure", rate_per_s=rate, sigma=sigma)
    arr = spec.timestamps(N_RATE, derive_rng(seed, "azure"))
    assert np.all(arr >= 0)
    assert np.all(np.diff(arr) >= 0)
    # The lognormal gaps are unit-mean by construction; moderate sigma keeps
    # the n=6000 sampling error of the empirical mean within ~20%.
    empirical_rate = 1000.0 * N_RATE / arr[-1]
    assert empirical_rate == pytest.approx(rate, rel=0.20)


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(["constant", "poisson", "burst", "azure", "diurnal"]),
    rate=rates,
    seed=seeds,
)
def test_arrival_spec_replays_identically(kind, rate, seed):
    spec = ArrivalSpec(kind=kind, rate_per_s=rate, interval_ms=rate)
    a = spec.timestamps(200, derive_rng(seed, "spec"))
    b = spec.timestamps(200, derive_rng(seed, "spec"))
    assert np.array_equal(a, b)
    assert spec.label  # every kind renders a stable label


# -- the NHPP thinning sampler (diurnal arrivals) ---------------------------

@settings(max_examples=40, deadline=None)
@given(
    rate=rates,
    amplitude=st.floats(min_value=0.0, max_value=1.0),
    seed=seeds,
)
def test_nhpp_sorted_nonnegative_and_mean_rate(rate, amplitude, seed):
    # Period chosen so the draw spans ~20 full cycles: the empirical rate
    # then converges to the curve's *mean*, whatever the swing.
    period_s = N_RATE / rate / 20.0
    curve = DiurnalRate.sinusoid(rate, amplitude=amplitude, period_s=period_s)
    arr = nhpp_arrivals(curve, N_RATE, derive_rng(seed, "nhpp"))
    assert arr.shape == (N_RATE,)
    assert np.all(arr >= 0)
    assert np.all(np.diff(arr) >= 0)
    empirical_rate = 1000.0 * N_RATE / arr[-1]
    assert empirical_rate == pytest.approx(curve.mean_rate, rel=0.12)


@settings(max_examples=25, deadline=None)
@given(
    low=st.floats(min_value=2.0, max_value=20.0),
    factor=st.floats(min_value=3.0, max_value=10.0),
    seed=seeds,
)
def test_nhpp_empirical_rate_tracks_piecewise_curve(low, factor, seed):
    # Two-level step schedule: the per-phase arrival counts must track
    # the phase rates — thinning is doing its job exactly when the
    # high-phase share matches the curve's integral over the observed
    # span (the stream truncates mid-period, so the expectation must
    # integrate the actual window, not assume whole cycles).
    high = low * factor
    period = 10.0
    half = period / 2.0
    curve = DiurnalRate.piecewise(((0.0, low), (half, high)), period_s=period)
    arr = nhpp_arrivals(curve, N_RATE, derive_rng(seed, "nhpp-pw"))
    phase = np.mod(arr / 1000.0, period)
    in_high = int(np.count_nonzero(phase >= half))
    span_s = arr[-1] / 1000.0
    full, rem = divmod(span_s, period)
    low_time = full * half + min(rem, half)
    high_time = full * half + max(0.0, rem - half)
    expected_share = (high * high_time) / (
        high * high_time + low * low_time
    )
    # Binomial sampling error at n=6000 is below 0.007; 0.03 is generous.
    assert in_high / arr.size == pytest.approx(expected_share, abs=0.03)


@settings(max_examples=25, deadline=None)
@given(
    rate=rates,
    amplitude=st.floats(min_value=0.0, max_value=1.0),
    period_s=st.floats(min_value=1.0, max_value=600.0),
    n=st.integers(min_value=1, max_value=2000),
    seed=seeds,
)
def test_nhpp_deterministic_under_fixed_seed(rate, amplitude, period_s, n, seed):
    curve = DiurnalRate.sinusoid(rate, amplitude=amplitude, period_s=period_s)
    a = nhpp_arrivals(curve, n, derive_rng(seed, "nhpp-det"))
    b = nhpp_arrivals(curve, n, derive_rng(seed, "nhpp-det"))
    assert np.array_equal(a, b)
    # A shifted seed must shift the draw (vanishing collision odds).
    c = nhpp_arrivals(curve, n, derive_rng(seed + 1, "nhpp-det"))
    assert not np.array_equal(a, c)
