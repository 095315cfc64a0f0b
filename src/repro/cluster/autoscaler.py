"""Horizontal autoscaler for warm pools.

Serverless platforms scale the *number* of instances with request intensity
(paper §I: "horizontal auto-scaling takes care of the number of function
instances based on the real-time request intensity"); Janus adds the
orthogonal vertical dimension. This scaler keeps each function's warm pool
near the recent concurrency so cold starts stay rare at steady load.
"""

from __future__ import annotations

import typing as _t

import numpy as np

from ..errors import ClusterError
from ..knobs import FRACTION, Domain, at_least, check_args
from ..sim.engine import Simulator

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from .pool import PoolManager

__all__ = ["HorizontalAutoscaler"]


class HorizontalAutoscaler:
    """Periodic controller adjusting per-function warm-pool targets."""

    #: Constructor knob domains (``ClusterConfig`` reuses two). The 1 ms
    #: floor keeps the DES clock moving: a tick under its float resolution
    #: never advances it, and sub-millisecond ticks flood it with events.
    KNOBS = {
        "interval_ms": Domain(lo=1.0, lo_open=False),
        "headroom": Domain(lo=1.0, lo_open=False),
        "ewma_alpha": FRACTION,
        "min_warm": at_least(0),
    }

    def __init__(
        self,
        sim: Simulator,
        pool: "PoolManager",
        interval_ms: float = 1000.0,
        headroom: float = 2.0,
        ewma_alpha: float = 0.5,
        min_warm: int = 1,
    ) -> None:
        check_args(ClusterError, HorizontalAutoscaler, locals())
        self.sim = sim
        self.pool = pool
        self.interval_ms = float(interval_ms)
        self.headroom = float(headroom)
        self.ewma_alpha = float(ewma_alpha)
        self.min_warm = int(min_warm)
        self._demand_ewma: dict[str, float] = {}
        self._in_flight: dict[str, int] = {}
        self.adjustments = 0
        self._running = False

    # -- demand signal (fed by the platform) --------------------------------
    def invocation_started(self, function: str) -> None:
        """Platform notifies that an invocation began."""
        self._in_flight[function] = self._in_flight.get(function, 0) + 1

    def invocation_finished(self, function: str) -> None:
        """Platform notifies that an invocation completed."""
        current = self._in_flight.get(function, 0)
        if current <= 0:
            raise ClusterError(f"no in-flight invocations for {function!r}")
        self._in_flight[function] = current - 1

    def in_flight(self, function: str) -> int:
        """Current concurrent invocations of ``function``."""
        return self._in_flight.get(function, 0)

    # -- control loop ------------------------------------------------------
    def start(self) -> None:
        """Launch the periodic scaling process."""
        if self._running:
            raise ClusterError("autoscaler already running")
        self._running = True
        self.sim.process(self._loop())

    def _loop(self):
        while True:
            yield self.sim.timeout(self.interval_ms)
            self._rescale()

    def _rescale(self) -> None:
        # One shared floor (``min_warm``) everywhere: per-function targets
        # and the empty-pool fallback. A higher floor on the per-function
        # branch would pin the warm target above the floor even at zero
        # demand, so idle functions could never scale down and keep-alive
        # sweeps would under-report idle cost.
        targets = []
        for function in self.pool.functions:
            observed = float(self._in_flight.get(function, 0))
            prev = self._demand_ewma.get(function, observed)
            smoothed = self.ewma_alpha * observed + (1 - self.ewma_alpha) * prev
            if smoothed < 1e-6:
                # The geometric decay never reaches exact zero, and ceil()
                # of any positive residue is 1 — snap negligible demand to
                # zero so min_warm=0 (scale to zero) is actually reachable
                # after a function has served traffic.
                smoothed = 0.0
            self._demand_ewma[function] = smoothed
            targets.append(
                max(self.min_warm, int(np.ceil(smoothed * self.headroom)))
            )
        # PoolManager keeps one shared per-function warm target; use the max
        # demand across functions of this pool.
        new_target = max(targets) if targets else self.min_warm
        if new_target != self.pool.warm_pool_size:
            self.pool.warm_pool_size = new_target
            self.adjustments += 1
