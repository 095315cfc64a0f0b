"""Function performance models and workset distributions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FunctionModelError
from repro.functions.model import FunctionModel, InvocationDynamics, Resource
from repro.functions.worksets import (
    FixedWorkset,
    LognormalWorkset,
    LogUniformWorkset,
    UniformIntWorkset,
)
from tests.conftest import make_function


class TestWorksets:
    def test_fixed_reference_and_sample(self, rng):
        ws = FixedWorkset(5.0)
        assert ws.reference == 5.0
        assert ws.sample(rng) == 5.0
        assert list(ws.sample(rng, size=3)) == [5.0] * 3

    def test_fixed_invalid(self):
        with pytest.raises(FunctionModelError):
            FixedWorkset(0.0)

    def test_uniform_int_bounds(self, rng):
        ws = UniformIntWorkset(1, 15)  # COCO objects per image
        samples = ws.sample(rng, size=2000)
        assert samples.min() >= 1 and samples.max() <= 15
        lo, hi = ws.support()
        assert (lo, hi) == (1.0, 15.0)

    def test_uniform_int_invalid(self):
        with pytest.raises(FunctionModelError):
            UniformIntWorkset(10, 5)

    def test_loguniform_bounds(self, rng):
        ws = LogUniformWorkset(35.0, 641.0)  # SQuAD words per passage
        samples = ws.sample(rng, size=2000)
        assert samples.min() >= 35.0 and samples.max() <= 641.0

    def test_loguniform_reference_is_geometric_mid(self):
        ws = LogUniformWorkset(10.0, 1000.0)
        assert ws.reference == pytest.approx(100.0)

    def test_loguniform_invalid(self):
        with pytest.raises(FunctionModelError):
            LogUniformWorkset(10.0, 10.0)

    def test_lognormal_clip(self, rng):
        ws = LognormalWorkset(median=1.0, sigma=0.5, clip_hi=2.0)
        samples = ws.sample(rng, size=2000)
        assert samples.max() <= 2.0

    def test_lognormal_invalid(self):
        with pytest.raises(FunctionModelError):
            LognormalWorkset(median=-1.0, sigma=0.1)
        with pytest.raises(FunctionModelError):
            LognormalWorkset(median=2.0, sigma=0.1, clip_hi=1.0)

    def test_scalar_sample_is_float(self, rng):
        for ws in (UniformIntWorkset(1, 5), LogUniformWorkset(1, 9),
                   LognormalWorkset(1.0, 0.1)):
            assert isinstance(ws.sample(rng), float)


class TestInvocationDynamics:
    def test_valid(self):
        d = InvocationDynamics(workset=2.0, noise_z=0.5, interference=1.2)
        assert d.interference == 1.2

    def test_invalid_workset(self):
        with pytest.raises(FunctionModelError):
            InvocationDynamics(workset=0.0, noise_z=0.0)

    def test_interference_below_one_rejected(self):
        with pytest.raises(FunctionModelError):
            InvocationDynamics(workset=1.0, noise_z=0.0, interference=0.5)


class TestFunctionModel:
    def test_base_time_amdahl(self):
        m = make_function(serial=100, parallel=900, sigma=0.0)
        assert m.base_time(1000) == pytest.approx(1000.0)
        assert m.base_time(3000) == pytest.approx(100 + 300)

    def test_more_cores_never_slower(self):
        m = make_function()
        dyn = InvocationDynamics(workset=50.0, noise_z=0.3)
        times = [m.execution_time(k, dyn) for k in (1000, 1500, 2000, 3000)]
        assert all(a >= b for a, b in zip(times, times[1:]))

    def test_interference_scales_time(self):
        m = make_function(sigma=0.0)
        base = m.execution_time(1000, InvocationDynamics(1.0, 0.0, 1.0))
        slowed = m.execution_time(1000, InvocationDynamics(1.0, 0.0, 2.0))
        assert slowed == pytest.approx(2 * base)

    def test_batch_factor(self):
        m = make_function(batch_eta=0.4)
        assert m.batch_factor(1) == 1.0
        assert m.batch_factor(3) == pytest.approx(1.8)

    def test_non_batchable_rejects_batches(self):
        m = make_function(batchable=False, batch_eta=0.0)
        with pytest.raises(FunctionModelError):
            m.batch_factor(2)

    def test_workset_factor_power_law(self):
        m = make_function(gamma=0.5, workset=FixedWorkset(4.0))
        assert m.workset_factor(16.0) == pytest.approx(2.0)

    def test_zero_gamma_ignores_workset(self):
        m = make_function(gamma=0.0)
        assert m.workset_factor(1e9) == 1.0

    def test_invalid_cores(self):
        m = make_function()
        with pytest.raises(FunctionModelError):
            m.base_time(0)

    def test_invalid_params(self):
        with pytest.raises(FunctionModelError):
            FunctionModel(name="", serial_ms=1, parallel_ms=1)
        with pytest.raises(FunctionModelError):
            FunctionModel(name="x", serial_ms=0, parallel_ms=0)
        with pytest.raises(FunctionModelError):
            FunctionModel(name="x", serial_ms=1, parallel_ms=1, sigma=-1)

    def test_sample_dynamics_deterministic_per_seed(self):
        m = make_function(gamma=0.3)

        def draw():
            return m.sample_dynamics(
                np.random.default_rng(5), np.random.default_rng(6), 4
            )

        for a, b in zip(draw(), draw()):
            assert a.tobytes() == b.tobytes()

    def test_vectorised_sampling_matches_model_statistics(self, rng):
        m = make_function(sigma=0.2)
        samples = m.sample_execution_times(2000, 5000, rng)
        # median of lognormal(log(base), 0.2) is base
        assert np.median(samples) == pytest.approx(m.base_time(2000), rel=0.05)

    def test_vectorised_sampling_rejects_bad_interference(self, rng):
        m = make_function()
        with pytest.raises(FunctionModelError):
            m.sample_execution_times(1000, 10, rng, interference=0.5)

    def test_vectorised_sampling_rejects_zero_n(self, rng):
        with pytest.raises(FunctionModelError):
            make_function().sample_execution_times(1000, 0, rng)

    def test_execution_time_batch_and_concurrency(self):
        m = make_function(sigma=0.0, batch_eta=0.5)
        dyn = InvocationDynamics(1.0, 0.0)
        assert m.execution_time(1000, dyn, concurrency=2) == pytest.approx(
            1.5 * m.execution_time(1000, dyn, concurrency=1)
        )

    @given(
        k=st.integers(min_value=100, max_value=10_000),
        z=st.floats(min_value=-3, max_value=3),
        q=st.floats(min_value=1.0, max_value=10.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_execution_time_always_positive(self, k, z, q):
        m = make_function(sigma=0.3, gamma=0.2)
        dyn = InvocationDynamics(workset=20.0, noise_z=z, interference=q)
        assert m.execution_time(k, dyn) > 0

    @given(
        k1=st.integers(min_value=100, max_value=5000),
        k2=st.integers(min_value=100, max_value=5000),
    )
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_cores_property(self, k1, k2):
        m = make_function()
        dyn = InvocationDynamics(workset=50.0, noise_z=1.0)
        if k1 <= k2:
            assert m.execution_time(k1, dyn) >= m.execution_time(k2, dyn)

    def test_resource_enum(self):
        assert Resource.NETWORK.value == "network"
