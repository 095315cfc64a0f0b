"""Fleet shape: named regions, their RTT table, and the CLI grammar.

A fleet is a set of named regions, each running its own copy of the
serving stack against a phase-offset arrival curve (region ``r`` of ``R``
sees the shared diurnal swing shifted by ``2*pi*r/R`` — its own local
busy hour). :class:`FleetConfig` is the declarative spec a scenario cell
carries; like :class:`~repro.cluster.faults.FaultSpec` it is frozen,
seed-free and picklable, so the digest/caching machinery folds it in with
``dataclasses.asdict``. :class:`RegionTopology` holds the symmetric
cross-region RTT table the latency-aware router and the remote-serving
penalty read from; the default is a ring (RTT grows with hop distance),
the shape of real multi-region deployments without per-pair
configuration.
"""

from __future__ import annotations

import math
import typing as _t
from dataclasses import dataclass

from ..errors import ExperimentError
from ..knobs import NON_NEGATIVE, POSITIVE, at_least, check, knob

__all__ = ["FleetConfig", "RegionTopology", "parse_fleet"]

#: Region names used when a spec gives only a count.
_DEFAULT_REGION_NAMES = ("us-east", "eu-west", "ap-south", "us-west",
                         "eu-north", "ap-east", "sa-east", "af-south")


@dataclass(frozen=True)
class RegionTopology:
    """Symmetric cross-region RTT table in milliseconds.

    ``rtt[a][b]`` is the one-way penalty a request pays when its home
    region ``a`` hands it to region ``b``; the diagonal is zero. Built
    from a fleet via :meth:`ring` — hop distance on the region ring times
    a per-hop RTT — or directly from an explicit table.
    """

    rtt: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.rtt)
        for a, row in enumerate(self.rtt):
            if len(row) != n:
                raise ExperimentError(
                    f"RTT table must be square, row {a} has {len(row)} "
                    f"entries for {n} regions"
                )
            if row[a] != 0.0:
                raise ExperimentError(
                    f"RTT table diagonal must be zero, got {row[a]} at {a}"
                )
            for b, value in enumerate(row):
                if value < 0:
                    raise ExperimentError(
                        f"RTT must be >= 0, got {value} for {a}->{b}"
                    )
                if self.rtt[b][a] != value:
                    raise ExperimentError(
                        f"RTT table must be symmetric, "
                        f"{a}->{b} is {value} but {b}->{a} is {self.rtt[b][a]}"
                    )

    @classmethod
    def ring(cls, n_regions: int, hop_rtt_ms: float) -> "RegionTopology":
        """Ring topology: RTT is hop distance times ``hop_rtt_ms``."""
        rows = []
        for a in range(n_regions):
            row = []
            for b in range(n_regions):
                hops = abs(a - b)
                row.append(min(hops, n_regions - hops) * float(hop_rtt_ms))
            rows.append(tuple(row))
        return cls(rtt=tuple(rows))

    def rtt_ms(self, a: int, b: int) -> float:
        """One-way RTT penalty from region ``a`` to region ``b``."""
        return self.rtt[a][b]


@dataclass(frozen=True)
class FleetConfig:
    """Declarative spec of one multi-region fleet — picklable, seed-free.

    ``capacity`` is the per-region in-flight ceiling the spillover router
    and the latency-aware queue penalty read (a request occupies its
    region from arrival until its SLO deadline — a deterministic load
    proxy that needs no feedback from the executor). ``rtt_ms`` is the
    per-hop RTT of the default ring topology. ``weights`` biases the
    weighted router (empty = uniform).
    """

    regions: tuple[str, ...] = _DEFAULT_REGION_NAMES[:3]
    routing: str = "home-region"
    capacity: int = knob(at_least(1), 8)
    rtt_ms: float = knob(NON_NEGATIVE, 60.0)
    weights: tuple[float, ...] = knob(POSITIVE, (), each=True)

    def __post_init__(self) -> None:
        if not self.regions:
            raise ExperimentError("fleet requires at least one region")
        if len(set(self.regions)) != len(self.regions):
            raise ExperimentError(
                f"region names must be unique, got {list(self.regions)}"
            )
        for name in self.regions:
            if not name or any(c in name for c in ",=|/"):
                raise ExperimentError(f"invalid region name {name!r}")
        # Lazy: routing.py imports this module for its context types.
        from .routing import ROUTING_POLICIES

        if self.routing not in ROUTING_POLICIES:
            raise ExperimentError(
                f"unknown routing policy {self.routing!r}; "
                f"known: {sorted(ROUTING_POLICIES)}"
            )
        check(self, ExperimentError)
        if self.weights and len(self.weights) != len(self.regions):
            raise ExperimentError(
                f"{len(self.weights)} weights for {len(self.regions)} regions"
            )
        farthest_ms = self.rtt_ms * (len(self.regions) // 2)  # ring hops
        if not farthest_ms < math.inf:
            raise ExperimentError(
                f"FleetConfig.rtt_ms={self.rtt_ms} gives the ring's farthest "
                f"regions an RTT of {farthest_ms:g} ms; it must be finite"
            )

    @property
    def label(self) -> str:
        """Stable identifier for scenario ids and reports."""
        return f"{len(self.regions)}r:{self.routing}"

    def topology(self) -> RegionTopology:
        """The fleet's RTT table (ring with ``rtt_ms`` per hop)."""
        return RegionTopology.ring(len(self.regions), self.rtt_ms)

    def effective_weights(self) -> tuple[float, ...]:
        """Routing weights, defaulting to uniform."""
        return self.weights if self.weights else (1.0,) * len(self.regions)


#: Numeric ``--fleet`` keys: the field each sets and how its text parses.
_NUMERIC_KNOBS: dict[str, tuple[str, _t.Callable[[str], _t.Any]]] = {
    "capacity": ("capacity", int),
    "rtt": ("rtt_ms", float),
    "weights": ("weights", lambda raw: tuple(map(float, raw.split(":")))),
}


def parse_fleet(text: str) -> FleetConfig:
    """Parse a CLI fleet token into a :class:`FleetConfig`.

    Grammar: comma-separated ``key=value`` pairs —
    ``regions=3`` (well-known names) or ``regions=eu:us:ap`` (explicit),
    ``routing=spillover`` (any registered policy), ``capacity=8``
    (per-region in-flight ceiling), ``rtt=60`` (ring per-hop RTT, ms),
    ``weights=1:2:1`` (weighted-router bias). Example::

        --fleet regions=3,routing=spillover,rtt=40
    """
    overrides: dict[str, _t.Any] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, raw = part.partition("=")
        key, raw = key.strip().lower(), raw.strip()
        if not sep or not key or not raw:
            raise ExperimentError(
                f"invalid fleet knob {part!r}; expected key=value"
            )
        if key == "regions":
            if ":" in raw:
                overrides["regions"] = tuple(
                    name.strip() for name in raw.split(":")
                )
            else:
                try:
                    count = int(raw)
                except ValueError:
                    raise ExperimentError(
                        f"regions must be a count or name:name:..., got {raw!r}"
                    )
                if not 1 <= count <= len(_DEFAULT_REGION_NAMES):
                    raise ExperimentError(
                        f"region count must be in "
                        f"[1, {len(_DEFAULT_REGION_NAMES)}], got {count} "
                        f"(name regions explicitly for larger fleets)"
                    )
                overrides["regions"] = _DEFAULT_REGION_NAMES[:count]
        elif key == "routing":
            overrides["routing"] = raw.lower()
        elif key in _NUMERIC_KNOBS:
            name, parse = _NUMERIC_KNOBS[key]
            try:
                overrides[name] = parse(raw)
            except ValueError:
                raise ExperimentError(f"invalid {key} {raw!r}")
        else:
            raise ExperimentError(
                f"unknown fleet knob {key!r}; "
                f"known: regions, routing, capacity, rtt, weights"
            )
    return FleetConfig(**overrides)
