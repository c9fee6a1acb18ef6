"""Route, equal-best route set, preference-tier, and announcement value types."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.netaddr.ipv4 import IPv4Prefix


class PrefTier(enum.IntEnum):
    """Local-preference class of a route, ordered best-first.

    The numeric values only encode ordering.  ``PEER`` covers both private
    interconnects and public IXP sessions; ``RS_PEER`` is the route-server
    tier BGP ranks below ordinary peers (§5.4) but above paid transit.
    """

    PROVIDER = 1
    RS_PEER = 2
    PEER = 3
    CUSTOMER = 4
    ORIGIN = 5


@dataclass(frozen=True)
class Route:
    """A selected route at one node.

    ``path`` is the node-level path from the holder to the origin site,
    inclusive on both ends; ``path[0]`` is the holder, ``path[-1]`` the
    origin site node.  ``hops`` (``len(path) - 1``) plays the role of BGP
    AS-path length.  ``origin`` repeats ``path[-1]`` for convenience.
    """

    prefix: IPv4Prefix
    origin: int
    path: tuple[int, ...]
    tier: PrefTier

    def __post_init__(self) -> None:
        if not self.path:
            raise ValueError("route path cannot be empty")
        if self.path[-1] != self.origin:
            raise ValueError(
                f"route origin {self.origin} does not terminate path {self.path}"
            )
        if len(set(self.path)) != len(self.path):
            raise ValueError(f"route path contains a loop: {self.path}")

    @property
    def holder(self) -> int:
        return self.path[0]

    @property
    def hops(self) -> int:
        """AS-path length (0 at the origin itself)."""
        return len(self.path) - 1

    @property
    def next_hop(self) -> int:
        """The neighbor the holder forwards to (the holder itself at origin)."""
        return self.path[1] if len(self.path) > 1 else self.path[0]


@dataclass(frozen=True)
class RouteChoice:
    """The equal-best routes of one node for one prefix.

    All member routes share the same preference tier and AS-path length;
    ``routes[0]`` is the primary (advertised) route.
    """

    routes: tuple[Route, ...]

    def __post_init__(self) -> None:
        if not self.routes:
            raise ValueError("a route choice cannot be empty")
        tiers = {r.tier for r in self.routes}
        hops = {r.hops for r in self.routes}
        if len(tiers) != 1 or len(hops) != 1:
            raise ValueError("equal-best routes must share tier and length")

    @property
    def primary(self) -> Route:
        return self.routes[0]

    @property
    def tier(self) -> PrefTier:
        return self.routes[0].tier

    @property
    def hops(self) -> int:
        return self.routes[0].hops

    def next_hops(self) -> tuple[int, ...]:
        return tuple(r.next_hop for r in self.routes)


@dataclass(frozen=True)
class OriginSpec:
    """One anycast origin: a site node and where it announces.

    ``neighbors`` restricts the announcement to a subset of the site's
    adjacencies (used to model per-prefix peering differences, e.g. the
    non-overlapping peers §5.3 filters out).  ``None`` announces to all
    neighbors.
    """

    site_node: int
    neighbors: frozenset[int] | None = None

    def announces_to(self, neighbor: int) -> bool:
        return self.neighbors is None or neighbor in self.neighbors


@dataclass(frozen=True)
class Announcement:
    """A prefix announced from one or more origin sites."""

    prefix: IPv4Prefix
    origins: tuple[OriginSpec, ...]

    def __post_init__(self) -> None:
        if not self.origins:
            raise ValueError(f"announcement of {self.prefix} has no origins")
        sites = [o.site_node for o in self.origins]
        if len(set(sites)) != len(sites):
            raise ValueError(f"announcement of {self.prefix} repeats an origin site")

    @classmethod
    def from_sites(cls, prefix: IPv4Prefix, site_nodes: list[int]) -> "Announcement":
        """Announce ``prefix`` from every site to all of its neighbors."""
        return cls(
            prefix=prefix,
            origins=tuple(OriginSpec(site_node=s) for s in site_nodes),
        )

    @property
    def origin_sites(self) -> tuple[int, ...]:
        return tuple(o.site_node for o in self.origins)
