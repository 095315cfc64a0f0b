"""Multi-region fleets: phase-offset regions joined by pluggable routing.

Public surface of the fleet subsystem — the declarative
:class:`FleetConfig` spec scenario cells carry, the
:class:`RegionTopology` RTT table, the :class:`RoutingPolicy` protocol
with its registry, the cell evaluator the sweep runner dispatches to,
and the merged per-region arrival stream the serving loop reads.
"""

from .routing import (
    ROUTING_POLICIES,
    RoutingContext,
    RoutingPlan,
    RoutingPolicy,
    StreamRouter,
    register_routing,
    route_requests,
)
from .runner import (
    fleet_arrival_source,
    fleet_requests,
    region_arrival,
    run_fleet_scenario,
)
from .topology import FleetConfig, RegionTopology, parse_fleet

__all__ = [
    "FleetConfig",
    "RegionTopology",
    "parse_fleet",
    "RoutingContext",
    "RoutingPlan",
    "RoutingPolicy",
    "ROUTING_POLICIES",
    "StreamRouter",
    "register_routing",
    "route_requests",
    "fleet_arrival_source",
    "fleet_requests",
    "region_arrival",
    "run_fleet_scenario",
]
