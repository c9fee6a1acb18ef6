"""Autonomous systems, PoPs, links, and interconnects.

Terminology used throughout the simulator:

- An **AS** is a routing-graph node with an ASN, a tier, a *home country*
  (the country its address space is registered in — geolocation databases
  sometimes return the home country for infrastructure deployed abroad,
  one of the paper's observed error sources, §4.3), and a set of PoPs.
- A **link** is a business adjacency between two nodes.  Transit links are
  directed (customer pays provider); peering links are symmetric and come
  in three flavours: private interconnect, public IXP peering, and IXP
  route-server peering.  The flavour feeds the BGP decision process
  (§5.4 — "routers generally prefer public peers over route server peers").
- An **interconnect** is one physical location where the link exists, with
  one interface address per side.  A link may interconnect in several
  cities (tier-1 meshes do); the forwarding model picks interconnects
  greedily, approximating hot-potato routing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.geo.atlas import City, city_km
from repro.netaddr.ipv4 import IPv4Address, IPv4Prefix


class Tier(enum.Enum):
    """Coarse position of an AS in the transit hierarchy."""

    TIER1 = "tier1"  # transit-free clique member
    TRANSIT = "transit"  # regional / national transit provider
    STUB = "stub"  # eyeball or enterprise edge network
    CDN = "cdn"  # content/anycast network (origin-only site nodes)
    IXP = "ixp"  # IXP route-server "AS" (never transits traffic)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class LinkKind(enum.Enum):
    """Business flavour of an adjacency."""

    TRANSIT = "transit"  # a (customer) pays b (provider)
    PEER_PRIVATE = "peer-private"  # settlement-free PNI
    PEER_PUBLIC = "peer-public"  # bilateral session over an IXP fabric
    PEER_ROUTE_SERVER = "peer-rs"  # multilateral session via IXP route server

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class PoP:
    """A point of presence of an AS in one city."""

    city: City

    @property
    def iata(self) -> str:
        return self.city.iata


@dataclass
class AutonomousSystem:
    """A routing-graph node.

    ``node_id`` uniquely identifies the node in the topology graph.  For
    ordinary ASes it equals the ASN; anycast *site* nodes share their CDN's
    ASN but get distinct node ids (a CDN announces from many sites under
    one origin AS, and sites do not transit traffic for each other).
    """

    node_id: int
    asn: int
    name: str
    tier: Tier
    home_country: str
    pops: tuple[PoP, ...]
    #: Address block the AS numbers its router interfaces from.
    infra_prefix: IPv4Prefix | None = None

    def __post_init__(self) -> None:
        if not self.pops:
            raise ValueError(f"AS {self.asn} ({self.name}) must have at least one PoP")
        seen = set()
        for pop in self.pops:
            if pop.iata in seen:
                raise ValueError(f"AS {self.asn} has duplicate PoP in {pop.iata}")
            seen.add(pop.iata)

    @property
    def is_site(self) -> bool:
        """True for CDN/testbed anycast site nodes."""
        return self.node_id != self.asn

    @property
    def cities(self) -> tuple[City, ...]:
        return tuple(pop.city for pop in self.pops)

    def nearest_pop(self, city: City) -> PoP:
        """The PoP geographically nearest to ``city`` (ties: the first)."""
        return min(self.pops, key=lambda p: city_km(p.city, city))

    def nearest_pop_km(self, city: City) -> float:
        """Great-circle km from :meth:`nearest_pop` to ``city``."""
        return min([city_km(p.city, city) for p in self.pops])

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"AS{self.asn}({self.name})"


@dataclass(frozen=True)
class Interconnect:
    """One physical location where a link exists.

    ``addr_a`` / ``addr_b`` are the interface addresses of the link's ``a``
    and ``b`` side at this location; traceroute hops report these
    addresses, and the Appendix-B pipeline geolocates them.
    """

    city: City
    addr_a: IPv4Address
    addr_b: IPv4Address
    #: Extra queueing/processing latency at this interconnect, in ms
    #: (sampled once at build time; deterministic thereafter).
    extra_ms: float = 0.0


@dataclass
class Link:
    """An adjacency between two topology nodes.

    For :attr:`LinkKind.TRANSIT` links, ``a`` is the **customer** and ``b``
    is the **provider**.  For peering links the order of ``a`` and ``b``
    carries no meaning.  ``ixp_id`` is set for public/route-server peering
    and names the IXP whose fabric carries the session.
    """

    a: int
    b: int
    kind: LinkKind
    interconnects: tuple[Interconnect, ...]
    ixp_id: int | None = None

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ValueError(f"self-link on node {self.a}")
        if not self.interconnects:
            raise ValueError(f"link {self.a}<->{self.b} has no interconnect")
        if self.kind in (LinkKind.PEER_PUBLIC, LinkKind.PEER_ROUTE_SERVER):
            if self.ixp_id is None:
                raise ValueError(f"IXP peering link {self.a}<->{self.b} missing ixp_id")
        elif self.ixp_id is not None:
            raise ValueError(f"non-IXP link {self.a}<->{self.b} has ixp_id set")

    def other(self, node_id: int) -> int:
        """The far end of the link, given one end."""
        if node_id == self.a:
            return self.b
        if node_id == self.b:
            return self.a
        raise ValueError(f"node {node_id} is not on link {self.a}<->{self.b}")

    def addr_of(self, node_id: int, interconnect: Interconnect) -> IPv4Address:
        """The interface address of ``node_id``'s side at an interconnect."""
        if node_id == self.a:
            return interconnect.addr_a
        if node_id == self.b:
            return interconnect.addr_b
        raise ValueError(f"node {node_id} is not on link {self.a}<->{self.b}")
