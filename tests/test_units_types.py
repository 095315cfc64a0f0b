"""Shared types and RNG management."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.rng import RngFactory, child_seed, derive_rng, make_rng
from repro.types import DEFAULT_PERCENTILES, PercentileGrid, ResourceLimits


class TestResourceLimits:
    def test_default_grid_matches_paper(self):
        limits = ResourceLimits()
        grid = limits.grid()
        assert grid[0] == 1000 and grid[-1] == 3000
        assert len(grid) == 21  # 1000..3000 step 100

    def test_num_options(self):
        assert ResourceLimits(1000, 2000, 500).num_options == 3

    def test_clamp_snaps_to_grid(self):
        limits = ResourceLimits(1000, 3000, 100)
        assert limits.clamp(1049) == 1000
        assert limits.clamp(1051) == 1100
        assert limits.clamp(99999) == 3000
        assert limits.clamp(1) == 1000

    def test_contains(self):
        limits = ResourceLimits(1000, 3000, 100)
        assert limits.contains(1500)
        assert not limits.contains(1550)
        assert not limits.contains(3100)

    def test_invalid_range_rejected(self):
        with pytest.raises(ConfigError):
            ResourceLimits(kmin=2000, kmax=1000)

    def test_misaligned_step_rejected(self):
        with pytest.raises(ConfigError):
            ResourceLimits(kmin=1000, kmax=3050, step=100)

    def test_non_positive_rejected(self):
        with pytest.raises(ConfigError):
            ResourceLimits(kmin=0, kmax=1000)


class TestPercentileGrid:
    def test_default_contains_anchor(self):
        grid = PercentileGrid()
        assert 99.0 in grid.percentiles
        assert grid.anchor == 99.0
        assert grid.percentiles == DEFAULT_PERCENTILES

    def test_default_is_paper_grid(self):
        # P1 then 5..95 step 5 then P99 anchor
        grid = PercentileGrid()
        assert grid.percentiles[0] == 1.0
        assert grid.percentiles[-1] == 99.0
        assert 50.0 in grid.percentiles

    def test_below_anchor(self):
        grid = PercentileGrid(percentiles=(1.0, 50.0, 99.0))
        assert grid.below_anchor() == (1.0, 50.0)

    def test_index_of(self):
        grid = PercentileGrid(percentiles=(1.0, 50.0, 99.0))
        assert grid.index_of(50.0) == 1
        assert grid.anchor_index == 2

    def test_index_of_unknown_raises(self):
        grid = PercentileGrid(percentiles=(1.0, 99.0))
        with pytest.raises(ConfigError):
            grid.index_of(42.0)

    def test_anchor_must_be_member(self):
        with pytest.raises(ConfigError):
            PercentileGrid(percentiles=(1.0, 50.0), anchor=99.0)

    def test_unsorted_rejected(self):
        with pytest.raises(ConfigError):
            PercentileGrid(percentiles=(50.0, 1.0, 99.0))

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            PercentileGrid(percentiles=(0.0, 99.0))
        with pytest.raises(ConfigError):
            PercentileGrid(percentiles=(1.0, 100.0), anchor=1.0)

    def test_stricter_anchor_supported(self):
        # Paper §III-B: P99.9 SLOs are supported by raising the anchor.
        grid = PercentileGrid(percentiles=(1.0, 50.0, 99.0, 99.9), anchor=99.9)
        assert grid.anchor_index == 3

    def test_as_array(self):
        grid = PercentileGrid(percentiles=(1.0, 99.0))
        np.testing.assert_allclose(grid.as_array(), [1.0, 99.0])


class TestRng:
    def test_child_seed_deterministic(self):
        assert child_seed(42, "a", "b") == child_seed(42, "a", "b")

    def test_child_seed_label_sensitive(self):
        assert child_seed(42, "a") != child_seed(42, "b")
        assert child_seed(42, "ab") != child_seed(42, "a", "b")

    def test_child_seed_seed_sensitive(self):
        assert child_seed(1, "a") != child_seed(2, "a")

    def test_derive_rng_reproducible(self):
        a = derive_rng(7, "x").standard_normal(5)
        b = derive_rng(7, "x").standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_streams_independent(self):
        f = RngFactory(3)
        a = f.stream("one").standard_normal(100)
        b = f.stream("two").standard_normal(100)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.3

    def test_fork_namespacing(self):
        f = RngFactory(3)
        assert f.fork("sub").seed("x") == RngFactory(f.seed("sub")).seed("x")

    def test_make_rng(self):
        assert isinstance(make_rng(1), np.random.Generator)
