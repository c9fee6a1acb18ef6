"""Internet Exchange Points.

An IXP provides a shared peering LAN in one metro.  Members can peer
*publicly* (bilateral BGP sessions over the fabric) or via the IXP's
*route server* (one multilateral session).  Two properties matter to the
reproduction:

- Interface addresses on the peering LAN belong to the IXP's prefix, which
  is **not announced in BGP** — the paper finds 49% of traceroute p-hops
  fall in IXP space and are invisible in RouteViews (§5.3).  The simulator
  reproduces that by numbering IXP interconnects from the IXP LAN prefix
  and excluding those prefixes from the IP-to-AS table.
- BGP routers typically prefer routes from public peers over routes from
  route-server peers (§5.4, Fig. 7); the routing engine gives the two
  kinds different preference tiers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.geo.atlas import City
from repro.netaddr.ipv4 import IPv4Address, IPv4Prefix


@dataclass
class IXP:
    """One Internet Exchange Point."""

    ixp_id: int
    name: str
    city: City
    #: The peering-LAN prefix interface addresses are numbered from.
    lan_prefix: IPv4Prefix
    #: Node ids of member ASes (joined at build or deployment time).
    members: set[int] = field(default_factory=set)
    #: Members attached to the route server (multilateral peering).
    route_server_members: set[int] = field(default_factory=set)
    #: Whether the IXP publishes its route-server feed.  §5.4 notes many
    #: IXPs do not, which limits how many peering-type-override cases the
    #: case-study classifier can attribute.
    publishes_route_server_feed: bool = True
    _next_host: int = field(default=1, repr=False)

    def join(self, node_id: int, route_server: bool = False) -> None:
        """Register a member on the peering LAN."""
        self.members.add(node_id)
        if route_server:
            self.route_server_members.add(node_id)

    def allocate_lan_address(self) -> IPv4Address:
        """Hand out the next interface address on the peering LAN."""
        if self._next_host >= self.lan_prefix.num_addresses - 1:
            raise RuntimeError(f"IXP {self.name} peering LAN exhausted")
        addr = self.lan_prefix.address(self._next_host)
        self._next_host += 1
        return addr

    def owns(self, addr: IPv4Address) -> bool:
        """Whether an address sits on this IXP's peering LAN."""
        return addr in self.lan_prefix

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name}@{self.city.iata}"
