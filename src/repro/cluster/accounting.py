"""Cluster resource accounting: allocated millicores over time."""

from __future__ import annotations

import typing as _t

from ..sim.engine import Simulator
from ..sim.monitor import TimeSeries

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from .vm import VirtualMachine

__all__ = ["ClusterAccounting"]


class ClusterAccounting:
    """Tracks cluster-wide allocation as a step time series.

    The integral of the series is the millicore-milliseconds consumed — the
    cluster-level counterpart of the paper's per-request CPU metric.
    """

    def __init__(self, sim: Simulator, vms: _t.Sequence["VirtualMachine"]) -> None:
        self.sim = sim
        self.vms = list(vms)
        self.series = TimeSeries()

    def total_allocated(self) -> int:
        """Millicores reserved by live pods right now."""
        return sum(vm.allocated for vm in self.vms)

    def snapshot(self) -> None:
        """Record the current allocation at the current simulation time."""
        self.series.record(self.sim.now, float(self.total_allocated()))

    def mean_allocated(self) -> float:
        """Time-weighted mean allocated millicores."""
        return self.series.time_weighted_mean(until=self.sim.now)

    def millicore_ms(self) -> float:
        """Integral of allocation over time."""
        return self.series.integral(until=self.sim.now)
