"""Anycast networks: site attachment and announcement construction."""

from __future__ import annotations

import hashlib
import random
import weakref
from dataclasses import dataclass

from repro.geo.areas import Area
from repro.geo.atlas import City, city_km
from repro.netaddr.ipv4 import IPv4Address, IPv4Prefix
from repro.routing.route import Announcement, OriginSpec
from repro.topology.asys import (
    AutonomousSystem,
    Interconnect,
    Link,
    LinkKind,
    PoP,
    Tier,
)
from repro.topology.graph import Topology, TopologyError

#: Site node ids start far above any generated ASN so they can never
#: collide with ordinary ASes.
_SITE_NODE_BASE = 1_000_000


#: The node ids of a topology's transit ASes, and per site metro those
#: transits ranked by nearest-PoP km (ties: lower node id).
_Rankings = tuple[tuple[int, ...], dict[str, list[AutonomousSystem]]]

#: Each topology's rankings.  Every network deployed over one topology
#: shares them, so LARGE ranks its 53 site metros once rather than once
#: for each of its 109 sites.  Weak keys: an entry dies with its topology.
_RANKINGS: "weakref.WeakKeyDictionary[Topology, _Rankings]" = (
    weakref.WeakKeyDictionary()
)


def _alloc_site_node_id(topology: Topology) -> int:
    next_id = getattr(topology, "_next_site_node_id", _SITE_NODE_BASE)
    topology._next_site_node_id = next_id + 1  # type: ignore[attr-defined]
    return next_id


@dataclass(frozen=True)
class SiteAttachment:
    """How a site connects to the Internet.

    ``num_providers`` transit providers are picked among those nearest the
    site's metro.  When the metro hosts an IXP, the site joins it; it
    attaches to the route server when ``join_route_server`` is set and
    opens bilateral public sessions with each member with probability
    ``public_peer_prob``.
    """

    num_providers: int = 2
    join_ixps: bool = True
    join_route_server: bool = True
    public_peer_prob: float = 0.5
    #: Probability one provider is an *international* carrier homed in a
    #: different area (the paper's Fig. 1: Imperva's Singapore site behind
    #: SingTel, itself in a North American carrier's customer cone).  Such
    #: attachments put the site's prefixes into remote customer cones —
    #: the root cause of cross-continent catchments under global anycast.
    remote_provider_prob: float = 0.0
    #: Also join the nearest IXP within this radius when the site's own
    #: metro has none (the remote-IXP link-layer case of Appendix B).
    remote_ixp_radius_km: float = 0.0


@dataclass
class AnycastSite:
    """One deployed anycast site."""

    name: str
    node_id: int
    city: City
    provider_ids: tuple[int, ...]
    public_peer_ids: tuple[int, ...]
    route_server_peer_ids: tuple[int, ...]
    ixp_ids: tuple[int, ...]

    @property
    def area(self) -> Area:
        return self.city.area

    @property
    def neighbor_ids(self) -> frozenset[int]:
        return frozenset(
            self.provider_ids + self.public_peer_ids + self.route_server_peer_ids
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name}@{self.city.iata}"


class AnycastNetwork:
    """An anycast operator: an ASN plus its deployed sites.

    All stochastic attachment choices are drawn from a network-local RNG
    seeded at construction, so a deployment is reproducible independently
    of call ordering elsewhere.
    """

    def __init__(self, name: str, asn: int, topology: Topology, seed: int = 0):
        self.name = name
        self.asn = asn
        self._topology = topology
        # String hashing is randomised per process; derive the RNG seed
        # from a stable digest so deployments are identical across runs.
        digest = hashlib.sha256(f"{seed}|{name}|{asn}".encode()).digest()
        self._rng = random.Random(int.from_bytes(digest[:8], "big"))
        self._sites: dict[str, AnycastSite] = {}
        self._plan = topology.address_plan  # type: ignore[attr-defined]
        self._atlas = topology.atlas  # type: ignore[attr-defined]
        self._transits: list[AutonomousSystem] | None = None
        #: Metro -> ``_transits`` ranked for it: this topology's
        #: ``_RANKINGS`` entry, bound together with ``_transits``.
        self._ranked: dict[str, list[AutonomousSystem]] = {}

    # ------------------------------------------------------------------
    @property
    def topology(self) -> Topology:
        return self._topology

    @property
    def sites(self) -> dict[str, AnycastSite]:
        return dict(self._sites)

    def site(self, name: str) -> AnycastSite:
        try:
            return self._sites[name]
        except KeyError:
            raise KeyError(f"{self.name} has no site named {name!r}") from None

    def site_names(self) -> list[str]:
        return list(self._sites)

    def site_of_node(self, node_id: int) -> AnycastSite | None:
        for site in self._sites.values():
            if site.node_id == node_id:
                return site
        return None

    def sites_in_area(self, area: Area) -> list[AnycastSite]:
        return [s for s in self._sites.values() if s.area is area]

    # ------------------------------------------------------------------
    def add_site(
        self,
        iata: str,
        name: str | None = None,
        attachment: SiteAttachment | None = None,
    ) -> AnycastSite:
        """Deploy a site in a metro and wire it into the topology."""
        attachment = attachment or SiteAttachment()
        city = self._atlas.get(iata)
        site_name = name or iata
        if site_name in self._sites:
            raise ValueError(f"{self.name} already has a site named {site_name!r}")
        node_id = _alloc_site_node_id(self._topology)
        node = AutonomousSystem(
            node_id=node_id,
            asn=self.asn,
            name=f"{self.name}-{site_name}",
            tier=Tier.CDN,
            home_country=city.country,
            pops=(PoP(city=city),),
            infra_prefix=self._plan.infra.allocate(22),
        )
        self._topology.add_node(node)
        providers = self._pick_providers(city, attachment.num_providers)
        if (
            attachment.remote_provider_prob > 0
            and self._rng.random() < attachment.remote_provider_prob
        ):
            remote = self._pick_remote_provider(city, exclude=providers)
            if remote is not None:
                providers = providers[:-1] + [remote] if providers else [remote]
        for provider in providers:
            self._link_provider(node, provider, city)
        public_peers: list[int] = []
        rs_peers: list[int] = []
        ixp_ids: list[int] = []
        if attachment.join_ixps:
            for ixp in self._candidate_ixps(city, attachment.remote_ixp_radius_km):
                ixp_ids.append(ixp.ixp_id)
                ixp.join(node_id, route_server=attachment.join_route_server)
                pub, rs = self._wire_site_into_ixp(node, ixp, attachment)
                public_peers.extend(pub)
                rs_peers.extend(rs)
        site = AnycastSite(
            name=site_name,
            node_id=node_id,
            city=city,
            provider_ids=tuple(p.node_id for p in providers),
            public_peer_ids=tuple(public_peers),
            route_server_peer_ids=tuple(rs_peers),
            ixp_ids=tuple(ixp_ids),
        )
        self._sites[site_name] = site
        return site

    def _pick_providers(self, city: City, count: int) -> list[AutonomousSystem]:
        if self._transits is None:
            self._transits = [
                n for n in self._topology.nodes() if n.tier is Tier.TRANSIT
            ]
            ids = tuple(t.node_id for t in self._transits)
            shared = _RANKINGS.get(self._topology)
            if shared is None or shared[0] != ids:
                shared = _RANKINGS[self._topology] = (ids, {})
            self._ranked = shared[1]
        if not self._transits:
            raise TopologyError("topology has no transit ASes to attach sites to")
        ranked = self._ranked.get(city.iata)
        if ranked is None:
            ranked = self._ranked[city.iata] = sorted(
                self._transits,
                key=lambda t: (t.nearest_pop_km(city), t.node_id),
            )
        pool = ranked[: max(count + 3, 5)]
        count = min(count, len(pool))
        return sorted(self._rng.sample(pool, count), key=lambda t: t.node_id)

    #: Area weights for remote (international-carrier) providers; the
    #: global transit market is NA-centric, matching the topology builder.
    _REMOTE_AREA_WEIGHTS = {
        Area.NA: 6.0,
        Area.EMEA: 2.0,
        Area.APAC: 1.0,
        Area.LATAM: 0.5,
    }

    def _pick_remote_provider(
        self, city: City, exclude: list[AutonomousSystem]
    ) -> AutonomousSystem | None:
        """An international carrier from another area to host the site."""
        excluded_ids = {t.node_id for t in exclude}
        candidates = [
            t
            for t in self._transits
            if t.pops[0].city.area is not city.area and t.node_id not in excluded_ids
        ]
        if not candidates:
            return None
        weights = [
            self._REMOTE_AREA_WEIGHTS.get(t.pops[0].city.area, 1.0)
            for t in candidates
        ]
        return self._rng.choices(candidates, weights, k=1)[0]

    def _link_provider(
        self, node: AutonomousSystem, provider: AutonomousSystem, city: City
    ) -> None:
        ic = Interconnect(
            city=city,
            addr_a=self._plan.infra_for(node).allocate(32).network_address,
            addr_b=self._plan.infra_for(provider).allocate(32).network_address,
            extra_ms=self._rng.uniform(0.1, 0.8),
        )
        self._topology.add_link(
            Link(a=node.node_id, b=provider.node_id, kind=LinkKind.TRANSIT,
                 interconnects=(ic,))
        )

    def _candidate_ixps(self, city: City, remote_radius_km: float):
        local = self._topology.ixps_in(city.iata)
        if local:
            return local
        if remote_radius_km <= 0:
            return []
        nearest = None
        nearest_km = remote_radius_km
        for ixp in self._topology.ixps():
            km = city_km(ixp.city, city)
            if km <= nearest_km:
                nearest, nearest_km = ixp, km
        return [nearest] if nearest is not None else []

    def _wire_site_into_ixp(self, node, ixp, attachment) -> tuple[list[int], list[int]]:
        """Open public and route-server sessions for a newly joined site.

        Mirrors the builder's rule: when a pair would hold both a public
        and a route-server session, only the public one is materialised
        (BGP could never select the route-server duplicate).
        """
        public: list[int] = []
        rs: list[int] = []
        for member in sorted(ixp.members):
            if member == node.node_id:
                continue
            if self._topology.has_link(node.node_id, member):
                continue
            is_public = self._rng.random() < attachment.public_peer_prob
            both_rs = (
                attachment.join_route_server and member in ixp.route_server_members
            )
            if not is_public and not both_rs:
                continue
            kind = LinkKind.PEER_PUBLIC if is_public else LinkKind.PEER_ROUTE_SERVER
            ic = Interconnect(
                city=ixp.city,
                addr_a=ixp.allocate_lan_address(),
                addr_b=ixp.allocate_lan_address(),
                extra_ms=self._rng.uniform(0.1, 0.8),
            )
            self._topology.add_link(
                Link(a=node.node_id, b=member, kind=kind,
                     interconnects=(ic,), ixp_id=ixp.ixp_id)
            )
            (public if is_public else rs).append(member)
        return public, rs

    # ------------------------------------------------------------------
    # Prefixes and announcements
    # ------------------------------------------------------------------
    def allocate_service_prefix(self) -> IPv4Prefix:
        """A fresh /24 from the shared service pool."""
        return self._plan.services.allocate(24)

    @staticmethod
    def service_address(prefix: IPv4Prefix) -> IPv4Address:
        """The canonical service address within a service prefix."""
        return prefix.address(1)

    def announcement(
        self,
        prefix: IPv4Prefix,
        site_names: list[str],
        neighbor_restriction: dict[str, frozenset[int]] | None = None,
    ) -> Announcement:
        """Announce ``prefix`` from the named sites.

        ``neighbor_restriction`` maps a site name to the neighbor node ids
        the prefix is announced to at that site (used to model per-prefix
        peering differences, §5.3).
        """
        if not site_names:
            raise ValueError(f"announcement of {prefix} needs at least one site")
        restriction = neighbor_restriction or {}
        origins = []
        for name in site_names:
            site = self.site(name)
            neighbors = restriction.get(name)
            if neighbors is not None:
                unknown = neighbors - site.neighbor_ids
                if unknown:
                    raise ValueError(
                        f"site {name} restriction names non-neighbors: {sorted(unknown)}"
                    )
            origins.append(OriginSpec(site_node=site.node_id, neighbors=neighbors))
        return Announcement(prefix=prefix, origins=tuple(origins))
