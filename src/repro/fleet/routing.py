"""Pluggable cross-region routing: the policy protocol and its registry.

Routing runs once per fleet cell, *before* any executor serves anything,
over the merged arrival-ordered request stream. Load is a deterministic
proxy — an assigned request occupies its region from arrival until its
SLO deadline — so the pass needs no feedback from the executors and every
backend (serial, pool, distributed) routes identically,
which is what keeps fleet sweeps bit-identical across backends.

Policies register by name through :func:`register_routing`; a
:class:`FleetConfig` names one and :func:`route_requests` resolves it.
Every policy must serve each request exactly once: it picks one region
from the ``up`` list (never empty — an outage with no survivor is
rejected upstream), and the router counts a *failover* when the home
region is dark and a *spillover* when the home region is up but the
policy sent the request elsewhere anyway.
"""

from __future__ import annotations

import heapq
import typing as _t
from dataclasses import dataclass

from ..errors import ExperimentError
from .topology import FleetConfig, RegionTopology

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.faults import RegionOutage

__all__ = [
    "RoutingContext",
    "RoutingPolicy",
    "RoutingPlan",
    "ROUTING_POLICIES",
    "StreamRouter",
    "register_routing",
    "route_requests",
]


@dataclass(frozen=True)
class RoutingContext:
    """Everything a routing decision may read besides instantaneous load."""

    fleet: FleetConfig
    topology: RegionTopology
    weights: tuple[float, ...]
    #: Queueing penalty (ms) one in-flight request adds to a region's
    #: latency score — the SLO budget spread over the region's capacity.
    queue_penalty_ms: float


@_t.runtime_checkable
class RoutingPolicy(_t.Protocol):
    """One cross-region placement decision.

    ``choose`` picks the serving region for a single request: ``home`` is
    the region whose arrival curve produced it, ``up`` the currently
    reachable regions in ascending index order (never empty), ``load``
    the per-region in-flight counts under the deterministic occupancy
    proxy. Implementations must be pure functions of their arguments —
    no RNG, no wall clock — so routing replays bit-identically.
    """

    def choose(
        self,
        home: int,
        up: _t.Sequence[int],
        load: _t.Sequence[int],
        ctx: RoutingContext,
    ) -> int: ...


#: Registered routing policies by CLI name.
ROUTING_POLICIES: dict[str, RoutingPolicy] = {}


def register_routing(
    name: str,
) -> _t.Callable[[type], type]:
    """Class decorator registering a :class:`RoutingPolicy` under ``name``."""

    def deco(cls: type) -> type:
        if name in ROUTING_POLICIES:
            raise ExperimentError(f"routing policy {name!r} already registered")
        ROUTING_POLICIES[name] = cls()
        return cls

    return deco


def _least_loaded(up: _t.Sequence[int], load: _t.Sequence[int]) -> int:
    """The up region with the fewest in-flight requests (ties by index)."""
    return min(up, key=lambda r: (load[r], r))


@register_routing("home-region")
class HomeRegionRouting:
    """Serve at home; drain to the least-loaded survivor only on outage."""

    def choose(
        self,
        home: int,
        up: _t.Sequence[int],
        load: _t.Sequence[int],
        ctx: RoutingContext,
    ) -> int:
        if home in up:
            return home
        return _least_loaded(up, load)


@register_routing("weighted")
class WeightedRouting:
    """Balance load across up regions proportionally to their weights."""

    def choose(
        self,
        home: int,
        up: _t.Sequence[int],
        load: _t.Sequence[int],
        ctx: RoutingContext,
    ) -> int:
        return min(up, key=lambda r: (load[r] / ctx.weights[r], r))


@register_routing("latency-aware")
class LatencyAwareRouting:
    """Minimise RTT from home plus a queueing penalty per in-flight request.

    The score trades the cross-region hop against local congestion: a
    saturated home region loses to a one-hop neighbour once its queue
    costs more than the link. Ties break toward home, then by index.
    """

    def choose(
        self,
        home: int,
        up: _t.Sequence[int],
        load: _t.Sequence[int],
        ctx: RoutingContext,
    ) -> int:
        return min(
            up,
            key=lambda r: (
                ctx.topology.rtt_ms(home, r)
                + load[r] * ctx.queue_penalty_ms,
                r != home,
                r,
            ),
        )


@register_routing("spillover")
class SpilloverRouting:
    """Serve at home until it saturates, then overflow to the least-loaded
    peer — the classic primary-with-overflow shape."""

    def choose(
        self,
        home: int,
        up: _t.Sequence[int],
        load: _t.Sequence[int],
        ctx: RoutingContext,
    ) -> int:
        if home in up and load[home] < ctx.fleet.capacity:
            return home
        peers = [r for r in up if r != home]
        if not peers:
            return home
        return _least_loaded(peers, load)


@dataclass(frozen=True)
class RoutingPlan:
    """The policy-independent outcome of routing one fleet cell's stream."""

    #: Serving region index per request, in global arrival order.
    assigned: tuple[int, ...]
    #: Per-request one-way RTT penalty (0 when served at home).
    rtt_ms: tuple[float, ...]
    #: Requests routed off-home while their home region was up.
    spillovers: int
    #: Requests routed off-home because their home region was dark.
    failovers: int
    #: Requests served per region.
    region_counts: tuple[int, ...]


class StreamRouter:
    """One request at a time, in arrival order — the routing state machine.

    The batch pass (:func:`route_requests`) and the always-on serving
    loop share this single implementation, so the sweep's routing
    semantics and the live service's are one and the same. Each routed
    request occupies its chosen region for ``hold_ms`` under the
    deterministic occupancy proxy; an active ``outage`` removes its
    region from the candidate list for arrivals inside the window.
    """

    def __init__(
        self,
        fleet: FleetConfig,
        hold_ms: float,
        outage: "RegionOutage | None" = None,
    ) -> None:
        n_regions = len(fleet.regions)
        if outage is not None and n_regions < 2:
            raise ExperimentError(
                "a region outage needs >= 2 regions to drain to"
            )
        self.fleet = fleet
        self.hold_ms = hold_ms
        self.outage = outage
        self.policy = ROUTING_POLICIES[fleet.routing]
        self.ctx = RoutingContext(
            fleet=fleet,
            topology=fleet.topology(),
            weights=fleet.effective_weights(),
            queue_penalty_ms=hold_ms / fleet.capacity,
        )
        self._all_up = list(range(n_regions))
        self._load = [0] * n_regions
        self._departing: list[tuple[float, int]] = []
        self.routed = 0
        self.spillovers = 0
        self.failovers = 0
        self.rtt_total_ms = 0.0
        self.region_counts = [0] * n_regions

    def route(self, home: int, t_ms: float) -> tuple[int, float]:
        """The serving region and one-way RTT penalty for one arrival."""
        departing, load = self._departing, self._load
        while departing and departing[0][0] <= t_ms:
            _, freed = heapq.heappop(departing)
            load[freed] -= 1
        outage = self.outage
        if outage is not None and outage.down_at(t_ms):
            up = [r for r in self._all_up if r != outage.region_index]
        else:
            up = self._all_up
        chosen = self.policy.choose(home, up, load, self.ctx)
        if chosen not in up:
            raise ExperimentError(
                f"routing policy {self.fleet.routing!r} chose a dark "
                f"region {chosen} at t={t_ms:g} ms"
            )
        if chosen != home:
            if home in up:
                self.spillovers += 1
            else:
                self.failovers += 1
        load[chosen] += 1
        heapq.heappush(departing, (t_ms + self.hold_ms, chosen))
        rtt = self.ctx.topology.rtt_ms(home, chosen)
        self.routed += 1
        self.rtt_total_ms += rtt
        self.region_counts[chosen] += 1
        return chosen, rtt


def route_requests(
    fleet: FleetConfig,
    homes: _t.Sequence[int],
    arrivals_ms: _t.Sequence[float],
    hold_ms: float,
    outage: "RegionOutage | None" = None,
) -> RoutingPlan:
    """Assign every request of one merged stream to a serving region.

    One deterministic pass in arrival order through a
    :class:`StreamRouter`. Conservation holds by construction — exactly
    one region per request, no drops, no duplicates.
    """
    router = StreamRouter(fleet, hold_ms, outage=outage)
    assigned: list[int] = []
    rtts: list[float] = []
    for home, t_ms in zip(homes, arrivals_ms):
        chosen, rtt = router.route(home, t_ms)
        assigned.append(chosen)
        rtts.append(rtt)
    return RoutingPlan(
        assigned=tuple(assigned),
        rtt_ms=tuple(rtts),
        spillovers=router.spillovers,
        failovers=router.failovers,
        region_counts=tuple(router.region_counts),
    )
