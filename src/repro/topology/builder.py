"""Seeded synthetic Internet generator.

The builder produces an Internet with the structural features that drive
the paper's findings:

- a **tier-1 clique** of transit-free backbones with PoPs worldwide — large
  ASes "may span multiple continents", which is why same-length AS paths can
  have wildly different latencies (§2.1);
- **regional transit providers** homed on a continent, a fraction of which
  buy *intercontinental* transit (the SingTel-under-Zayo pattern of Fig. 1
  that pulls traffic across oceans through customer-route preference);
- **stub / eyeball ASes** in specific metros, where probes live;
- **IXPs** in hub cities, with both public (bilateral) and route-server
  (multilateral) peering — the preference between them drives Fig. 7.

Everything is derived from a single integer seed; two builds with the same
parameters are identical object-for-object.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro import obs
from repro.geo.areas import Area
from repro.geo.atlas import City, WorldAtlas, load_default_atlas
from repro.netaddr.allocator import PrefixAllocator
from repro.netaddr.ipv4 import IPv4Prefix
from repro.topology.asys import (
    AutonomousSystem,
    Interconnect,
    Link,
    LinkKind,
    PoP,
    Tier,
)
from repro.topology.graph import Topology, TopologyError
from repro.topology.ixp import IXP

#: Cities where tier-1 backbones concentrate PoPs.
_BACKBONE_CITIES: tuple[str, ...] = (
    "JFK", "IAD", "ORD", "DFW", "LAX", "SJC", "SEA", "MIA", "ATL", "DEN",
    "YYZ", "YVR",
    "LHR", "AMS", "FRA", "CDG", "MAD", "MXP", "ARN", "VIE", "WAW", "ZRH",
    "SIN", "HKG", "NRT", "ICN", "SYD", "BOM", "TPE",
    "GRU", "EZE", "SCL", "BOG", "MEX",
    "JNB", "CAI", "LOS", "NBO",
    "DXB", "IST", "TLV", "SVO",
)

#: Cities that host an IXP in the default build, roughly mirroring where
#: the large real-world exchanges sit (AMS-IX, DE-CIX, LINX, Equinix, ...).
_DEFAULT_IXP_CITIES: tuple[str, ...] = (
    "AMS", "FRA", "LHR", "CDG", "WAW", "ARN", "MXP", "MAD", "VIE", "PRG",
    "IAD", "JFK", "ORD", "DFW", "SJC", "LAX", "SEA", "MIA", "YYZ",
    "SIN", "HKG", "NRT", "ICN", "SYD", "BOM", "TPE",
    "GRU", "EZE", "SCL", "BOG",
    "JNB", "NBO", "LOS", "CAI", "DXB", "IST", "SVO",
)

#: Share of transit ASes homed in each area (EMEA-heavy, like the real
#: transit market and like RIPE Atlas coverage).
_TRANSIT_AREA_WEIGHTS: tuple[tuple[Area, float], ...] = (
    (Area.EMEA, 0.38),
    (Area.NA, 0.27),
    (Area.APAC, 0.23),
    (Area.LATAM, 0.12),
)

#: Share of stub ASes per area, matching the paper's probe-group densities
#: (EMEA 3859, NA 1154, APAC 613, LatAm 141 of 5767 groups).
_STUB_AREA_WEIGHTS: tuple[tuple[Area, float], ...] = (
    (Area.EMEA, 0.62),
    (Area.NA, 0.20),
    (Area.APAC, 0.12),
    (Area.LATAM, 0.06),
)


@dataclass
class TopologyParams:
    """Knobs of the synthetic Internet generator."""

    seed: int = 42
    num_tier1: int = 10
    num_transit: int = 240
    num_stubs: int = 900
    #: PoPs per tier-1 (sampled without replacement from backbone cities).
    tier1_pops: int = 26
    #: PoP count range for transit ASes within their home area.
    transit_pops_min: int = 2
    transit_pops_max: int = 6
    #: Probability a transit AS buys transit from a transit in another area
    #: (the intercontinental-customer pattern behind Fig. 1).
    transit_intercontinental_prob: float = 0.25
    #: Area weights for choosing the intercontinental *provider* (the
    #: global transit market is NA-centric).
    intercontinental_provider_weights: dict[Area, float] = field(
        default_factory=lambda: {
            Area.NA: 6.0,
            Area.EMEA: 2.0,
            Area.APAC: 1.0,
            Area.LATAM: 0.5,
        }
    )
    #: Probability two same-area transits sharing a metro peer privately.
    transit_private_peer_prob: float = 0.30
    #: Probability a stub is multihomed to a second transit.
    stub_multihome_prob: float = 0.30
    #: Probability a stub in an IXP metro joins the IXP.
    stub_ixp_join_prob: float = 0.25
    #: Probability a transit with a PoP in an IXP metro joins the IXP.
    transit_ixp_join_prob: float = 0.65
    #: Probability two IXP members establish a *public* bilateral session.
    ixp_public_peer_prob: float = 0.35
    #: Probability an IXP member attaches to the route server.
    ixp_route_server_prob: float = 0.55
    #: Fraction of IXPs that publish their route-server feed (§5.4 notes
    #: many do not, limiting case attribution).
    ixp_feed_publish_fraction: float = 0.4
    #: Interconnect extra-latency range, in milliseconds.
    interconnect_extra_ms: tuple[float, float] = (0.1, 1.2)
    ixp_cities: tuple[str, ...] = _DEFAULT_IXP_CITIES
    #: Infrastructure prefix length allocated per AS, by tier.  /19 per
    #: node caps the 10.0.0.0/8 pool at 2048 ASes; the LARGE preset
    #: shrinks transit and stub allocations to fit thousands.
    tier1_infra_prefix: int = 19
    transit_infra_prefix: int = 19
    stub_infra_prefix: int = 19
    #: Wire transit members of consecutive IXPs into a private-peering
    #: ring (the seed-emulator IX-ring pattern).  Off by default so the
    #: DEFAULT/SMALL RNG streams — and their golden topologies — are
    #: untouched; LARGE enables it.
    ixp_ring: bool = False

    def __post_init__(self) -> None:
        if self.num_tier1 < 3:
            raise ValueError("need at least 3 tier-1 ASes for a clique")
        if self.transit_pops_min < 1 or self.transit_pops_max < self.transit_pops_min:
            raise ValueError("invalid transit PoP range")


@dataclass
class AddressPlan:
    """Address pools shared by the topology and later deployments."""

    infra: PrefixAllocator
    ixp_lans: PrefixAllocator
    services: PrefixAllocator
    hosts: PrefixAllocator
    _per_node: dict[int, PrefixAllocator] = field(default_factory=dict)

    @classmethod
    def default(cls) -> "AddressPlan":
        return cls(
            infra=PrefixAllocator(IPv4Prefix.parse("10.0.0.0/8")),
            ixp_lans=PrefixAllocator(IPv4Prefix.parse("172.16.0.0/12")),
            services=PrefixAllocator(IPv4Prefix.parse("198.0.0.0/8")),
            hosts=PrefixAllocator(IPv4Prefix.parse("100.0.0.0/8")),
        )

    def infra_for(self, node: AutonomousSystem) -> PrefixAllocator:
        """Per-node interface allocator, carved from the node's infra prefix."""
        alloc = self._per_node.get(node.node_id)
        if alloc is None:
            if node.infra_prefix is None:
                raise TopologyError(f"node {node.node_id} has no infra prefix")
            alloc = PrefixAllocator(node.infra_prefix)
            # Skip the network address so interface IPs are never .0.
            alloc.allocate(32)
            self._per_node[node.node_id] = alloc
        return alloc


class InternetBuilder:
    """Builds a :class:`Topology` from :class:`TopologyParams`."""

    def __init__(
        self,
        params: TopologyParams | None = None,
        atlas: WorldAtlas | None = None,
        plan: AddressPlan | None = None,
    ):
        self.params = params or TopologyParams()
        self.atlas = atlas or load_default_atlas()
        self.plan = plan or AddressPlan.default()
        self._rng = random.Random(self.params.seed)
        self._next_asn = {Tier.TIER1: 101, Tier.TRANSIT: 2001, Tier.STUB: 10001}
        self._infra_prefix = {
            Tier.TIER1: self.params.tier1_infra_prefix,
            Tier.TRANSIT: self.params.transit_infra_prefix,
            Tier.STUB: self.params.stub_infra_prefix,
        }
        #: Proximity-ranked transit pools per stub metro.  The ranking is
        #: a pure sort (no RNG draws), so memoizing it changes nothing in
        #: the random stream — it only stops LARGE builds re-sorting
        #: hundreds of transits for every one of thousands of stubs.
        self._stub_pools: dict[str, list[AutonomousSystem]] = {}

    # ------------------------------------------------------------------
    def build(self) -> Topology:
        """Generate the Internet and validate it."""
        with obs.span("topology.generate", seed=self.params.seed):
            topo = Topology()
            topo.address_plan = self.plan  # type: ignore[attr-defined]
            topo.atlas = self.atlas  # type: ignore[attr-defined]
            with obs.span("topology.tier1s"):
                tier1s = self._build_tier1s(topo)
            with obs.span("topology.transits"):
                transits = self._build_transits(topo, tier1s)
            with obs.span("topology.stubs"):
                self._build_stubs(topo, transits)
            with obs.span("topology.ixps"):
                self._build_ixps(topo)
            with obs.span("topology.validate"):
                topo.validate()
            obs.counter.inc("topology.builds")
            obs.gauge.set("topology.nodes", topo.num_nodes)
            obs.gauge.set("topology.links", topo.num_links)
        return topo

    # ------------------------------------------------------------------
    # Node factories
    # ------------------------------------------------------------------
    def _new_as(
        self,
        tier: Tier,
        name: str,
        home_country: str,
        cities: list[City],
    ) -> AutonomousSystem:
        asn = self._next_asn[tier]
        self._next_asn[tier] += 1
        infra = self.plan.infra.allocate(self._infra_prefix[tier])
        return AutonomousSystem(
            node_id=asn,
            asn=asn,
            name=name,
            tier=tier,
            home_country=home_country,
            pops=tuple(PoP(city=c) for c in cities),
            infra_prefix=infra,
        )

    def _build_tier1s(self, topo: Topology) -> list[AutonomousSystem]:
        backbone = [self.atlas.get(iata) for iata in _BACKBONE_CITIES]
        home_countries = ["US", "US", "US", "GB", "DE", "FR", "SE", "JP", "IN", "IT",
                          "US", "NL", "ES", "HK", "AU"]
        tier1s = []
        for i in range(self.params.num_tier1):
            count = min(self.params.tier1_pops, len(backbone))
            cities = self._rng.sample(backbone, count)
            node = self._new_as(
                Tier.TIER1,
                name=f"backbone-{i:02d}",
                home_country=home_countries[i % len(home_countries)],
                cities=cities,
            )
            topo.add_node(node)
            tier1s.append(node)
        # Full clique of private peering, interconnecting in shared metros.
        for i, a in enumerate(tier1s):
            for b in tier1s[i + 1 :]:
                self._link_peers(topo, a, b, LinkKind.PEER_PRIVATE, max_interconnects=32)
        return tier1s

    def _build_transits(
        self, topo: Topology, tier1s: list[AutonomousSystem]
    ) -> list[AutonomousSystem]:
        transits: list[AutonomousSystem] = []
        area_quota = self._quota(self.params.num_transit, _TRANSIT_AREA_WEIGHTS)
        idx = 0
        for area, count in area_quota:
            area_cities = self.atlas.in_area(area)
            for _ in range(count):
                n_pops = self._rng.randint(
                    self.params.transit_pops_min, self.params.transit_pops_max
                )
                n_pops = min(n_pops, len(area_cities))
                cities = self._rng.sample(area_cities, n_pops)
                home_country = cities[0].country
                node = self._new_as(
                    Tier.TRANSIT,
                    name=f"transit-{area.value.lower()}-{idx:03d}",
                    home_country=home_country,
                    cities=cities,
                )
                topo.add_node(node)
                transits.append(node)
                idx += 1
        # Providers: 1-3 tier-1s each, interconnecting near the transit.
        for node in transits:
            n_prov = self._rng.randint(1, 3)
            for provider in self._rng.sample(tier1s, n_prov):
                self._link_transit(topo, customer=node, provider=provider,
                                   max_interconnects=8)
        # Intercontinental transit customers: an area transit buys transit
        # from a transit homed in another area (Fig. 1's SingTel pattern).
        # Providers are drawn with NA-heavy weights: the global transit
        # market is centred on large North American carriers, so foreign
        # customer cones — and the global-anycast catchment pathologies
        # they cause — concentrate behind NA providers.  A transit's pool
        # is every transit homed in another area (which leaves the transit
        # itself out), so one pool and weight list serve a whole area.
        foreign_pools: dict[Area, tuple[list[AutonomousSystem], list[float]]] = {}
        for node in transits:
            if self._rng.random() >= self.params.transit_intercontinental_prob:
                continue
            area = node.pops[0].city.area
            pool = foreign_pools.get(area)
            if pool is None:
                foreign = [t for t in transits if t.pops[0].city.area is not area]
                weights = [
                    self.params.intercontinental_provider_weights.get(
                        t.pops[0].city.area, 1.0
                    )
                    for t in foreign
                ]
                pool = foreign_pools[area] = (foreign, weights)
            foreign, weights = pool
            if not foreign:
                continue
            provider = self._rng.choices(foreign, weights, k=1)[0]
            if topo.has_link(node.node_id, provider.node_id):
                continue
            # A longer loop (EMEA -> NA -> APAC -> EMEA) would close a
            # customer-provider cycle just as the reverse link would.
            if _is_upstream_of(topo, node.node_id, provider.node_id):
                continue
            self._link_transit(topo, customer=node, provider=provider)
        # Private peering between same-area transits sharing a metro.
        pop_cities = [frozenset(p.iata for p in t.pops) for t in transits]
        for i, (a, a_cities) in enumerate(zip(transits, pop_cities)):
            for b, b_cities in zip(transits[i + 1 :], pop_cities[i + 1 :]):
                if a_cities.isdisjoint(b_cities):
                    continue
                if topo.has_link(a.node_id, b.node_id):
                    continue
                if self._rng.random() < self.params.transit_private_peer_prob:
                    self._link_peers(topo, a, b, LinkKind.PEER_PRIVATE)
        return transits

    def _build_stubs(
        self, topo: Topology, transits: list[AutonomousSystem]
    ) -> list[AutonomousSystem]:
        stubs: list[AutonomousSystem] = []
        area_quota = self._quota(self.params.num_stubs, _STUB_AREA_WEIGHTS)
        # Index transits by area for provider selection.
        by_area: dict[Area, list[AutonomousSystem]] = {}
        for t in transits:
            by_area.setdefault(t.pops[0].city.area, []).append(t)
        for area, count in area_quota:
            cities = self.atlas.in_area(area)
            area_transits = by_area.get(area, [])
            if not area_transits:
                raise TopologyError(f"no transit ASes available in {area}")
            for i in range(count):
                city = self._rng.choice(cities)
                node = self._new_as(
                    Tier.STUB,
                    name=f"stub-{city.iata.lower()}-{i:04d}",
                    home_country=city.country,
                    cities=[city],
                )
                topo.add_node(node)
                stubs.append(node)
                providers = self._pick_stub_providers(city, area_transits)
                for provider in providers:
                    self._link_transit(topo, customer=node, provider=provider)
        return stubs

    def _pick_stub_providers(
        self, city: City, area_transits: list[AutonomousSystem]
    ) -> list[AutonomousSystem]:
        """Choose 1-2 nearby transits for a stub, weighted toward proximity."""
        pool = self._stub_pools.get(city.iata)
        if pool is None:
            ranked = sorted(area_transits, key=lambda t: t.nearest_pop_km(city))
            # Sample from the nearest candidates with mild randomness so
            # stubs in one metro do not all share a single provider.
            pool = ranked[: max(4, len(ranked) // 4)]
            self._stub_pools[city.iata] = pool
        first = self._rng.choice(pool)
        providers = [first]
        if self._rng.random() < self.params.stub_multihome_prob and len(pool) > 1:
            second = self._rng.choice([t for t in pool if t is not first])
            providers.append(second)
        return providers

    # ------------------------------------------------------------------
    # IXPs
    # ------------------------------------------------------------------
    def _build_ixps(self, topo: Topology) -> None:
        # Nodes with a PoP in each metro, in topology order.
        nodes_in: dict[str, list[AutonomousSystem]] = {}
        for node in topo.nodes():
            for pop in node.pops:
                nodes_in.setdefault(pop.iata, []).append(node)
        transit_members_per_ixp: list[list[AutonomousSystem]] = []
        for i, iata in enumerate(self.params.ixp_cities):
            city = self.atlas.get(iata)
            ixp = IXP(
                ixp_id=i + 1,
                name=f"IX-{iata}",
                city=city,
                lan_prefix=self.plan.ixp_lans.allocate(22),
                publishes_route_server_feed=(
                    self._rng.random() < self.params.ixp_feed_publish_fraction
                ),
            )
            topo.add_ixp(ixp)
            members: list[AutonomousSystem] = []
            for node in nodes_in.get(iata, ()):
                if node.tier is Tier.TIER1:
                    continue  # tier-1s rely on PNIs in this model
                join_prob = (
                    self.params.transit_ixp_join_prob
                    if node.tier is Tier.TRANSIT
                    else self.params.stub_ixp_join_prob
                )
                if self._rng.random() < join_prob:
                    ixp.join(node.node_id)
                    members.append(node)
            self._wire_ixp(topo, ixp, members)
            transit_members_per_ixp.append(
                [m for m in members if m.tier is Tier.TRANSIT]
            )
        if self.params.ixp_ring and len(transit_members_per_ixp) > 1:
            self._wire_ixp_ring(topo, transit_members_per_ixp)

    def _wire_ixp_ring(
        self,
        topo: Topology,
        transit_members_per_ixp: list[list[AutonomousSystem]],
    ) -> None:
        """Privately peer one transit of each IXP with one of the next.

        The seed-emulator IX-ring: consecutive exchanges are stitched
        through their transit members, giving large worlds the lateral
        backbone real regional ecosystems have without inflating the
        tier-1 clique.  Only runs when ``ixp_ring`` is set, so presets
        that predate the knob keep their exact RNG stream.
        """
        count = len(transit_members_per_ixp)
        for i in range(count):
            here = transit_members_per_ixp[i]
            there = transit_members_per_ixp[(i + 1) % count]
            if not here or not there:
                continue
            a = self._rng.choice(here)
            candidates = [
                t
                for t in there
                if t.node_id != a.node_id
                and not topo.has_link(a.node_id, t.node_id)
            ]
            if not candidates:
                continue
            b = self._rng.choice(candidates)
            self._link_peers(topo, a, b, LinkKind.PEER_PRIVATE)

    def _wire_ixp(
        self, topo: Topology, ixp: IXP, members: list[AutonomousSystem]
    ) -> None:
        """Create public and route-server sessions among IXP members.

        When a pair would have both a public session and a route-server
        session, only the public one is materialised: BGP prefers public
        peers to route-server peers (§5.4), so the route-server duplicate
        could never carry traffic.
        """
        rs_ids = {
            m.node_id
            for m in members
            if self._rng.random() < self.params.ixp_route_server_prob
        }
        ixp.route_server_members.update(rs_ids)
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                if topo.has_link(a.node_id, b.node_id):
                    continue
                public = self._rng.random() < self.params.ixp_public_peer_prob
                both_rs = a.node_id in rs_ids and b.node_id in rs_ids
                if not public and not both_rs:
                    continue
                kind = LinkKind.PEER_PUBLIC if public else LinkKind.PEER_ROUTE_SERVER
                ic = Interconnect(
                    city=ixp.city,
                    addr_a=ixp.allocate_lan_address(),
                    addr_b=ixp.allocate_lan_address(),
                    extra_ms=self._extra_ms(),
                )
                topo.add_link(
                    Link(
                        a=a.node_id,
                        b=b.node_id,
                        kind=kind,
                        interconnects=(ic,),
                        ixp_id=ixp.ixp_id,
                    )
                )

    # ------------------------------------------------------------------
    # Link helpers
    # ------------------------------------------------------------------
    def _extra_ms(self) -> float:
        lo, hi = self.params.interconnect_extra_ms
        return self._rng.uniform(lo, hi)

    def _shared_cities(
        self, a: AutonomousSystem, b: AutonomousSystem
    ) -> list[City]:
        b_iatas = {p.iata for p in b.pops}
        return [p.city for p in a.pops if p.iata in b_iatas]

    def _interconnect_cities(
        self, a: AutonomousSystem, b: AutonomousSystem, max_interconnects: int
    ) -> list[City]:
        """Cities where a link between ``a`` and ``b`` physically exists.

        Prefer metros both networks are present in; otherwise the pair
        interconnects at the provider-side PoP nearest the customer (the
        customer backhauls to it, which the latency model charges for).
        """
        shared = self._shared_cities(a, b)
        if shared:
            if len(shared) > max_interconnects:
                shared = self._rng.sample(shared, max_interconnects)
            return shared
        anchor = a.pops[0].city
        return [b.nearest_pop(anchor).city]

    def _link_transit(
        self,
        topo: Topology,
        customer: AutonomousSystem,
        provider: AutonomousSystem,
        max_interconnects: int = 6,
    ) -> None:
        cities = self._interconnect_cities(customer, provider, max_interconnects)
        cust_alloc = self.plan.infra_for(customer)
        prov_alloc = self.plan.infra_for(provider)
        ics = tuple(
            Interconnect(
                city=city,
                addr_a=cust_alloc.allocate(32).network_address,
                addr_b=prov_alloc.allocate(32).network_address,
                extra_ms=self._extra_ms(),
            )
            for city in cities
        )
        topo.add_link(
            Link(a=customer.node_id, b=provider.node_id, kind=LinkKind.TRANSIT,
                 interconnects=ics)
        )

    def _link_peers(
        self,
        topo: Topology,
        a: AutonomousSystem,
        b: AutonomousSystem,
        kind: LinkKind,
        max_interconnects: int = 6,
    ) -> None:
        cities = self._interconnect_cities(a, b, max_interconnects)
        a_alloc = self.plan.infra_for(a)
        b_alloc = self.plan.infra_for(b)
        ics = tuple(
            Interconnect(
                city=city,
                addr_a=a_alloc.allocate(32).network_address,
                addr_b=b_alloc.allocate(32).network_address,
                extra_ms=self._extra_ms(),
            )
            for city in cities
        )
        topo.add_link(Link(a=a.node_id, b=b.node_id, kind=kind, interconnects=ics))

    # ------------------------------------------------------------------
    @staticmethod
    def _quota(total: int, weights: tuple[tuple[Area, float], ...]) -> list[tuple[Area, int]]:
        """Split ``total`` across areas by weight, remainder to the first."""
        quota = [(area, int(total * w)) for area, w in weights]
        assigned = sum(c for _, c in quota)
        if quota and assigned < total:
            area0, c0 = quota[0]
            quota[0] = (area0, c0 + (total - assigned))
        return quota


def _is_upstream_of(topo: Topology, upstream: int, node: int) -> bool:
    """Whether ``upstream`` is a direct or indirect provider of ``node``.

    A read-only walk up the provider links: it draws nothing from the
    builder's RNG, so a build that never meets a would-be cycle stays
    draw-for-draw identical.
    """
    stack = [node]
    seen = {node}
    while stack:
        for provider in topo.providers_of(stack.pop()):
            if provider == upstream:
                return True
            if provider not in seen:
                seen.add(provider)
                stack.append(provider)
    return False
