"""BGP policy-routing tests on hand-built topologies.

Each scenario encodes one policy behaviour the paper's findings depend
on; the expected outcomes are worked out by hand.
"""

import pytest

from repro.geo.atlas import load_default_atlas
from repro.netaddr.ipv4 import IPv4Address, IPv4Prefix
from repro.par.cache import encode_table
from repro.routing.engine import RoutingEngine, RoutingTable
from repro.routing.forwarding import trace_forwarding_path
from repro.routing.route import Announcement, OriginSpec, PrefTier, Route, RouteChoice
from repro.topology.asys import (
    AutonomousSystem,
    Interconnect,
    Link,
    LinkKind,
    PoP,
    Tier,
)
from repro.topology.flat import flat_adjacency
from repro.topology.graph import Topology
from repro.topology.ixp import IXP

ATLAS = load_default_atlas()
PREFIX = IPv4Prefix.parse("198.18.0.0/24")


class Net:
    """Terse imperative topology construction for routing scenarios."""

    def __init__(self):
        self.topo = Topology()
        self._addr = 167772160  # 10.0.0.0

    def node(self, nid, iata="FRA", tier=Tier.TRANSIT):
        self.topo.add_node(
            AutonomousSystem(
                node_id=nid, asn=nid, name=f"as{nid}", tier=tier,
                home_country=ATLAS.get(iata).country,
                pops=(PoP(city=ATLAS.get(iata)),),
            )
        )
        return nid

    def _ic(self, iata, extra_ms=0.0):
        a = IPv4Address(self._addr)
        b = IPv4Address(self._addr + 1)
        self._addr += 2
        return Interconnect(city=ATLAS.get(iata), addr_a=a, addr_b=b,
                            extra_ms=extra_ms)

    def transit(self, customer, provider, iata="FRA"):
        self.topo.add_link(Link(a=customer, b=provider, kind=LinkKind.TRANSIT,
                                interconnects=(self._ic(iata),)))

    def peer(self, a, b, iata="FRA", kind=LinkKind.PEER_PRIVATE, ixp_id=None):
        self.topo.add_link(Link(a=a, b=b, kind=kind,
                                interconnects=(self._ic(iata),), ixp_id=ixp_id))

    def ixp(self, ixp_id, iata="FRA"):
        self.topo.add_ixp(IXP(ixp_id=ixp_id, name=f"ix{ixp_id}",
                              city=ATLAS.get(iata),
                              lan_prefix=IPv4Prefix.parse(f"172.16.{ixp_id}.0/24")))

    def routes(self, *origins, restrict=None):
        ann = Announcement(
            prefix=PREFIX,
            origins=tuple(
                OriginSpec(site_node=o, neighbors=(restrict or {}).get(o))
                for o in origins
            ),
        )
        return RoutingEngine(self.topo).compute(ann)


class TestRouteTypes:
    def test_route_validates_path(self):
        with pytest.raises(ValueError):
            Route(prefix=PREFIX, origin=2, path=(1,), tier=PrefTier.CUSTOMER)
        with pytest.raises(ValueError):
            Route(prefix=PREFIX, origin=1, path=(2, 3, 2, 1), tier=PrefTier.CUSTOMER)
        with pytest.raises(ValueError):
            Route(prefix=PREFIX, origin=1, path=(), tier=PrefTier.CUSTOMER)

    def test_route_accessors(self):
        r = Route(prefix=PREFIX, origin=3, path=(1, 2, 3), tier=PrefTier.PEER)
        assert r.holder == 1 and r.next_hop == 2 and r.hops == 2

    def test_origin_route_next_hop_is_self(self):
        r = Route(prefix=PREFIX, origin=1, path=(1,), tier=PrefTier.ORIGIN)
        assert r.next_hop == 1 and r.hops == 0

    def test_announcement_rejects_duplicates_and_empty(self):
        with pytest.raises(ValueError):
            Announcement(prefix=PREFIX, origins=())
        spec = OriginSpec(site_node=1)
        with pytest.raises(ValueError):
            Announcement(prefix=PREFIX, origins=(spec, spec))

    def test_route_choice_requires_uniform_tier_and_hops(self):
        r1 = Route(prefix=PREFIX, origin=3, path=(1, 2, 3), tier=PrefTier.PEER)
        r2 = Route(prefix=PREFIX, origin=4, path=(1, 4), tier=PrefTier.PEER)
        with pytest.raises(ValueError):
            RouteChoice(routes=(r1, r2))
        with pytest.raises(ValueError):
            RouteChoice(routes=())


class TestBasicPropagation:
    def test_single_origin_reaches_everyone(self):
        net = Net()
        t1 = net.node(1, tier=Tier.TIER1)
        t2 = net.node(2, "AMS", tier=Tier.TIER1)
        mid = net.node(3, "LHR")
        stub = net.node(4, "MAD", tier=Tier.STUB)
        origin = net.node(9, "FRA", tier=Tier.CDN)
        net.peer(t1, t2)
        net.transit(mid, t1)
        net.transit(stub, mid)
        net.transit(origin, t2, iata="FRA")
        table = net.routes(9)
        assert table.catchment_of(4) == 9
        assert table.reachable_fraction() == 1.0
        # Path: stub -> mid -> t1 -> t2 -> origin.
        assert table.route_at(4).path == (4, 3, 1, 2, 9)

    def test_unreachable_without_any_link(self):
        net = Net()
        net.node(1, tier=Tier.TIER1)
        net.node(9, tier=Tier.CDN)
        table = net.routes(9)
        assert table.route_at(1) is None
        assert table.catchment_of(1) is None

    def test_origin_holds_its_own_route(self):
        net = Net()
        net.node(1, tier=Tier.TIER1)
        net.node(9, tier=Tier.CDN)
        net.transit(9, 1)
        table = net.routes(9)
        assert table.route_at(9).tier is PrefTier.ORIGIN
        assert table.route_at(9).hops == 0

    def test_unknown_origin_rejected(self):
        net = Net()
        net.node(1, tier=Tier.TIER1)
        with pytest.raises(ValueError):
            net.routes(999)


class TestGaoRexfordPreferences:
    def _fig1_like(self):
        """Zayo prefers its customer SingTel's route to the far site over
        its peer Level3's route to the near site (Fig. 1)."""
        net = Net()
        zayo = net.node(1, "DCA", tier=Tier.TIER1)
        level3 = net.node(2, "IAD", tier=Tier.TIER1)
        singtel = net.node(3, "SIN")
        client = net.node(4, "DCA", tier=Tier.STUB)
        near = net.node(8, "IAD", tier=Tier.CDN)
        far = net.node(9, "SIN", tier=Tier.CDN)
        net.peer(zayo, level3, iata="DCA")
        net.transit(singtel, zayo, iata="LAX")
        net.transit(client, zayo, iata="DCA")
        net.transit(near, level3, iata="IAD")
        net.transit(far, singtel, iata="SIN")
        return net, client, near, far

    def test_customer_route_beats_peer_route(self):
        net, client, near, far = self._fig1_like()
        table = net.routes(near, far)
        # Zayo's best is the customer route via SingTel despite distance.
        assert table.catchment_of(1) == far
        assert table.catchment_of(client) == far

    def test_regional_prefix_fixes_catchment(self):
        net, client, near, far = self._fig1_like()
        table = net.routes(near)  # only the near site announces
        assert table.catchment_of(client) == near

    def test_peer_route_beats_provider_route(self):
        net = Net()
        t1 = net.node(1, tier=Tier.TIER1)
        t2 = net.node(2, "AMS", tier=Tier.TIER1)
        mid = net.node(3, "LHR")
        origin = net.node(9, "FRA", tier=Tier.CDN)
        net.peer(t1, t2)
        net.transit(mid, t1)
        net.peer(mid, origin, iata="FRA")  # origin peers with mid directly
        net.transit(origin, t2)
        table = net.routes(9)
        # mid must use its direct peer route, not the provider route via t1.
        assert table.route_at(3).tier is PrefTier.PEER
        assert table.route_at(3).path == (3, 9)

    def test_public_peer_beats_route_server_even_if_longer(self):
        """Fig. 7's preference: a 3-hop public-peer route beats a 1-hop
        route-server route."""
        net = Net()
        net.ixp(1, "FRA")
        zayo = net.node(1, "FRA", tier=Tier.TIER1)
        singtel = net.node(2, "SIN")
        client = net.node(3, "MSQ", tier=Tier.STUB)
        t99 = net.node(4, "ARN", tier=Tier.TIER1)
        far = net.node(9, "SIN", tier=Tier.CDN)
        near = net.node(8, "FRA", tier=Tier.CDN)
        net.peer(zayo, t99)
        net.transit(singtel, zayo, iata="LAX")
        net.transit(far, singtel, iata="SIN")
        net.transit(near, t99, iata="FRA")
        net.transit(client, t99, iata="FRA")
        net.peer(client, zayo, iata="FRA", kind=LinkKind.PEER_PUBLIC, ixp_id=1)
        net.peer(client, near, iata="FRA", kind=LinkKind.PEER_ROUTE_SERVER, ixp_id=1)
        table = net.routes(8, 9)
        route = table.route_at(client)
        assert route.tier is PrefTier.PEER
        assert route.origin == far  # pulled to Singapore via the public peer

    def test_route_server_beats_provider(self):
        net = Net()
        net.ixp(1, "FRA")
        t1 = net.node(1, tier=Tier.TIER1)
        client = net.node(3, "FRA", tier=Tier.STUB)
        origin = net.node(9, "FRA", tier=Tier.CDN)
        net.transit(client, t1)
        net.transit(origin, t1)
        net.peer(client, origin, iata="FRA", kind=LinkKind.PEER_ROUTE_SERVER, ixp_id=1)
        table = net.routes(9)
        assert table.route_at(client).tier is PrefTier.RS_PEER
        assert table.route_at(client).hops == 1

    def test_shorter_path_wins_within_tier(self):
        net = Net()
        t1 = net.node(1, tier=Tier.TIER1)
        a = net.node(2, "AMS")
        b = net.node(3, "LHR")
        c = net.node(4, "MAD")
        origin = net.node(9, "FRA", tier=Tier.CDN)
        net.transit(a, t1)
        net.transit(b, t1)
        net.transit(c, b)  # longer chain: origin -> c -> b -> t1
        net.transit(origin, a)  # short chain: origin -> a -> t1
        net.transit(origin, c)
        table = net.routes(9)
        # t1 has two customer routes: via a (2 hops) and via b (3 hops).
        assert table.route_at(1).path == (1, 2, 9)


class TestValleyFreeExport:
    def test_peer_route_not_exported_to_peers(self):
        net = Net()
        t1 = net.node(1, tier=Tier.TIER1)
        t2 = net.node(2, "AMS", tier=Tier.TIER1)
        t3 = net.node(3, "LHR", tier=Tier.TIER1)
        origin = net.node(9, "FRA", tier=Tier.CDN)
        net.peer(t1, t2)
        net.peer(t2, t3)
        net.transit(origin, t1)
        table = net.routes(9)
        # t2 learns via its peer t1; it must NOT pass that to its peer t3.
        assert table.route_at(2).tier is PrefTier.PEER
        assert table.route_at(3) is None

    def test_provider_route_not_exported_to_peers_or_providers(self):
        net = Net()
        t1 = net.node(1, tier=Tier.TIER1)
        mid = net.node(2, "AMS")
        leaf = net.node(3, "LHR", tier=Tier.STUB)
        other = net.node(4, "MAD")
        origin = net.node(9, "FRA", tier=Tier.CDN)
        net.transit(mid, t1)
        net.transit(leaf, mid)
        net.peer(leaf, other, iata="MAD")
        net.transit(origin, t1)
        table = net.routes(9)
        assert table.route_at(3).tier is PrefTier.PROVIDER
        # leaf's provider-learned route must not reach its peer.
        assert table.route_at(4) is None

    def test_customer_route_exported_everywhere(self):
        net = Net()
        t1 = net.node(1, tier=Tier.TIER1)
        mid = net.node(2, "AMS")
        peer_of_mid = net.node(3, "LHR")
        cust_of_mid = net.node(4, "MAD", tier=Tier.STUB)
        origin = net.node(9, "FRA", tier=Tier.CDN)
        net.transit(origin, mid)
        net.transit(mid, t1)
        net.peer(mid, peer_of_mid)
        net.transit(cust_of_mid, mid)
        table = net.routes(9)
        assert table.route_at(1) is not None  # up to provider
        assert table.route_at(3) is not None  # across to peer
        assert table.route_at(4) is not None  # down to customer


class TestAnycastAndRestrictions:
    def test_anycast_catchment_splits(self):
        net = Net()
        t1 = net.node(1, "JFK", tier=Tier.TIER1)
        t2 = net.node(2, "NRT", tier=Tier.TIER1)
        us_stub = net.node(3, "JFK", tier=Tier.STUB)
        jp_stub = net.node(4, "NRT", tier=Tier.STUB)
        us_site = net.node(8, "JFK", tier=Tier.CDN)
        jp_site = net.node(9, "NRT", tier=Tier.CDN)
        net.peer(t1, t2, iata="LAX")
        net.transit(us_stub, t1, iata="JFK")
        net.transit(jp_stub, t2, iata="NRT")
        net.transit(us_site, t1, iata="JFK")
        net.transit(jp_site, t2, iata="NRT")
        table = net.routes(8, 9)
        assert table.catchment_of(3) == 8
        assert table.catchment_of(4) == 9

    def test_neighbor_restriction_blocks_export(self):
        net = Net()
        t1 = net.node(1, tier=Tier.TIER1)
        t2 = net.node(2, "AMS", tier=Tier.TIER1)
        origin = net.node(9, "FRA", tier=Tier.CDN)
        net.peer(t1, t2)
        net.transit(origin, t1)
        net.transit(origin, t2)
        # Announce to t2 only.
        table = net.routes(9, restrict={9: frozenset({2})})
        assert table.route_at(2).path == (2, 9)
        # t2 learned the route from its *customer*, so it legitimately
        # re-exports it to its peer t1: t1 reaches the origin via t2, not
        # directly, despite having a direct adjacency.
        assert table.route_at(1).path == (1, 2, 9)
        assert table.route_at(1).tier is PrefTier.PEER

    def test_restriction_to_peer_only_stays_local(self):
        """When the origin announces only over a peering session, the
        prefix must not propagate past that peer (valley-free)."""
        net = Net()
        t1 = net.node(1, tier=Tier.TIER1)
        t2 = net.node(2, "AMS", tier=Tier.TIER1)
        origin = net.node(9, "FRA", tier=Tier.CDN)
        net.peer(t1, t2)
        net.transit(origin, t1)
        net.peer(origin, t2, iata="FRA")
        table = net.routes(9, restrict={9: frozenset({2})})
        assert table.route_at(2).tier is PrefTier.PEER
        assert table.route_at(1) is None

    def test_loop_freedom_everywhere(self, tiny_topology):
        from repro.topology.asys import Tier as T

        stubs = [n.node_id for n in tiny_topology.nodes() if n.tier is T.STUB]
        origin = stubs[0]
        table = RoutingEngine(tiny_topology).compute(
            Announcement(prefix=PREFIX, origins=(OriginSpec(site_node=origin),))
        )
        for choice in table.best.values():
            for route in choice.routes:
                assert len(set(route.path)) == len(route.path)

    def test_equal_best_routes_share_tier_and_hops(self, tiny_topology):
        from repro.topology.asys import Tier as T

        stubs = [n.node_id for n in tiny_topology.nodes() if n.tier is T.STUB]
        table = RoutingEngine(tiny_topology).compute(
            Announcement(prefix=PREFIX, origins=(OriginSpec(site_node=stubs[1]),))
        )
        for choice in table.best.values():
            tiers = {r.tier for r in choice.routes}
            hops = {r.hops for r in choice.routes}
            assert len(tiers) == 1 and len(hops) == 1

    def test_table_caching_per_topology_version(self, tiny_topology):
        from repro.topology.asys import Tier as T

        engine = RoutingEngine(tiny_topology)
        stub = next(n.node_id for n in tiny_topology.nodes() if n.tier is T.STUB)
        ann = Announcement(prefix=PREFIX, origins=(OriginSpec(site_node=stub),))
        assert engine.compute(ann) is engine.compute(ann)


class TestForwarding:
    def _line(self):
        net = Net()
        t1 = net.node(1, "AMS", tier=Tier.TIER1)
        stub = net.node(2, "LHR", tier=Tier.STUB)
        origin = net.node(9, "FRA", tier=Tier.CDN)
        net.transit(stub, t1, iata="LHR")
        net.transit(origin, t1, iata="FRA")
        return net, stub, origin

    def test_path_and_rtt_accounting(self):
        net, stub, origin = self._line()
        table = net.routes(origin)
        start = ATLAS.get("LHR").location
        fp = trace_forwarding_path(net.topo, table, stub, start, last_mile_ms=2.0)
        assert fp.node_path == (stub, 1, origin)
        assert fp.origin == origin
        assert fp.dest_city.iata == "FRA"
        # Distance: LHR->LHR (0) + LHR->FRA + FRA->FRA (0).
        expected_km = ATLAS.get("LHR").location.distance_km(ATLAS.get("FRA").location)
        assert fp.distance_km == pytest.approx(expected_km, rel=1e-9)
        assert fp.rtt_ms >= 2.0 + expected_km / 100.0

    def test_penultimate_hop_is_site_ingress(self):
        net, stub, origin = self._line()
        table = net.routes(origin)
        fp = trace_forwarding_path(net.topo, table, stub, ATLAS.get("LHR").location)
        phop = fp.penultimate_hop
        assert phop is not None
        assert phop.node_id == origin
        assert phop.city.iata == "FRA"

    def test_unreachable_returns_none(self):
        net, stub, origin = self._line()
        lonely = net.node(7, "MAD", tier=Tier.STUB)
        table = net.routes(origin)
        assert trace_forwarding_path(
            net.topo, table, lonely, ATLAS.get("MAD").location
        ) is None

    def test_negative_last_mile_rejected(self):
        net, stub, origin = self._line()
        table = net.routes(origin)
        with pytest.raises(ValueError):
            trace_forwarding_path(net.topo, table, stub,
                                  ATLAS.get("LHR").location, last_mile_ms=-1)

    def _coasts(self):
        """A tier-1 with two equal-length exits, one per US coast."""
        net = Net()
        t1 = net.node(1, "JFK", tier=Tier.TIER1)
        # Give the tier-1 a second PoP city via interconnect choice only.
        east_mid = net.node(2, "JFK")
        west_mid = net.node(3, "LAX")
        east_site = net.node(8, "JFK", tier=Tier.CDN)
        west_site = net.node(9, "LAX", tier=Tier.CDN)
        east_stub = net.node(4, "JFK", tier=Tier.STUB)
        west_stub = net.node(5, "LAX", tier=Tier.STUB)
        net.transit(east_mid, t1, iata="JFK")
        net.transit(west_mid, t1, iata="LAX")
        net.transit(east_site, east_mid, iata="JFK")
        net.transit(west_site, west_mid, iata="LAX")
        net.transit(east_stub, t1, iata="JFK")
        net.transit(west_stub, t1, iata="LAX")
        return net

    def test_hot_potato_picks_nearby_equal_best_exit(self):
        """Two equal-length exits from a tier-1: clients on each coast
        should leave via their own coast (per-ingress hot potato)."""
        net = self._coasts()
        table = net.routes(8, 9)
        east_path = trace_forwarding_path(
            net.topo, table, 4, ATLAS.get("JFK").location
        )
        west_path = trace_forwarding_path(
            net.topo, table, 5, ATLAS.get("LAX").location
        )
        assert east_path.origin == 8
        assert west_path.origin == 9

    def test_exit_trail_options(self):
        """The hot-potato options a capture records, pinned per hop:
        (next hop, interconnect city, km, chosen)."""
        from repro.explain import provenance

        net = self._coasts()
        table = net.routes(8, 9)
        with provenance.capturing() as rec:
            for stub, iata in ((4, "JFK"), (5, "LAX")):
                trace_forwarding_path(
                    net.topo, table, stub, ATLAS.get(iata).location
                )
        coast_km = 3935.218414279227
        expected = {
            4: (8, [
                (4, [(1, "JFK", 0.0, True)]),
                (1, [(2, "JFK", 0.0, True), (3, "LAX", coast_km, False)]),
                (2, [(8, "JFK", 0.0, True)]),
            ]),
            5: (9, [
                (5, [(1, "LAX", 0.0, True)]),
                (1, [(2, "JFK", coast_km, False), (3, "LAX", 0.0, True)]),
                (3, [(9, "LAX", 0.0, True)]),
            ]),
        }
        for stub, (origin, steps) in expected.items():
            trail = rec.forwarding_for(str(PREFIX), stub)
            assert trail.origin == origin
            assert [
                (step.node_id, [
                    (o.next_hop, o.ic_city, o.km, o.chosen)
                    for o in step.options
                ])
                for step in trail.steps
            ] == steps

    def test_walk_after_add_link_matches_fresh_build(self):
        """A topology mutation between two walks retires the exit memo:
        the second walk equals one over a topology built with the link
        from the start."""
        from repro.topology.flat import flat_adjacency

        def fingerprint(path):
            return (path.node_path, path.rtt_ms, path.distance_km,
                    [(h.addr, h.rtt_ms) for h in path.hops])

        start = ATLAS.get("JFK").location
        net = self._coasts()
        before = trace_forwarding_path(net.topo, net.routes(8, 9), 4, start)
        memo = flat_adjacency(net.topo)
        # A direct JFK stub -> LAX transit link: shorter than via the
        # tier-1, so the east client now lands on the west site.
        net.transit(4, 3, iata="LAX")
        after = trace_forwarding_path(net.topo, net.routes(8, 9), 4, start)
        assert flat_adjacency(net.topo) is not memo
        assert after.node_path == (4, 3, 9)
        assert fingerprint(after) != fingerprint(before)

        fresh = self._coasts()
        fresh.transit(4, 3, iata="LAX")
        expected = trace_forwarding_path(
            fresh.topo, fresh.routes(8, 9), 4, start
        )
        assert fingerprint(after) == fingerprint(expected)

    def test_repeated_walk_adds_no_memo_entries(self):
        from repro.topology.flat import flat_adjacency

        net = self._coasts()
        table = net.routes(8, 9)
        adjacency = flat_adjacency(net.topo)
        assert adjacency.exit_count() == 0
        starts = ((4, "JFK"), (5, "LAX"))
        first = [
            trace_forwarding_path(net.topo, table, stub, ATLAS.get(iata).location)
            for stub, iata in starts
        ]
        filled = adjacency.exit_count()
        assert filled > 0
        again = [
            trace_forwarding_path(net.topo, table, stub, ATLAS.get(iata).location)
            for stub, iata in starts
        ]
        assert adjacency.exit_count() == filled
        assert again == first


class TestEqualBestBounds:
    #: Distinct interconnect cities so every candidate exit has its own
    #: hot-potato distance from the destination's LHR PoP.
    CITIES = ["FRA", "AMS", "CDG", "MAD", "JFK", "LAX", "SIN", "NRT",
              "SYD", "GRU", "JNB", "DXB", "BOM", "HKG", "ICN", "YYZ",
              "SEA", "ORD", "MIA", "VIE"]

    def _fan(self):
        """20 equal-length provider paths into one destination node."""
        net = Net()
        origin = net.node(1, "FRA", tier=Tier.CDN)
        dest = net.node(2, "LHR", tier=Tier.STUB)
        for i, iata in enumerate(self.CITIES):
            mid = net.node(10 + i, iata)
            net.transit(origin, mid, iata=iata)
            net.transit(dest, mid, iata=iata)
        return net, origin, dest

    def test_overflow_keeps_best_sixteen_rank_ordered(self):
        net, origin, dest = self._fan()
        table = net.routes(origin)
        choice = table.choice_at(dest)
        assert choice is not None
        assert len(choice.routes) == RoutingEngine.MAX_EQUAL_BEST
        # The kept set is ordered by the engine's within-set rank...
        exit_km = flat_adjacency(net.topo).exit_km
        ranked = sorted(
            choice.routes,
            key=lambda r: (exit_km(dest, r.next_hop), r.next_hop, r.origin),
        )
        assert list(choice.routes) == ranked
        # ...and is exactly the best sixteen of all twenty candidates.
        kept = {r.next_hop for r in choice.routes}
        all_mids = sorted(
            (net.topo.link_between(dest, 10 + i)
             .interconnects[0].city.location
             .distance_km(ATLAS.get("LHR").location), 10 + i)
            for i in range(len(self.CITIES))
        )
        expected = {mid for _, mid in all_mids[:RoutingEngine.MAX_EQUAL_BEST]}
        assert kept == expected

    def test_all_kept_routes_share_tier_and_hops(self):
        net, origin, dest = self._fan()
        choice = net.routes(origin).choice_at(dest)
        assert choice.tier is PrefTier.PROVIDER
        assert {r.hops for r in choice.routes} == {choice.hops}


class TestExitKmCache:
    """The engine ranks equal-best routes by the exit km of the
    topology's flat adjacency, a memo that lives for one version."""

    def _pair(self, net):
        """Origin 1 and destination 2 joined through JFK and SIN mids."""
        origin = net.node(1, "FRA", tier=Tier.CDN)
        dest = net.node(2, "LHR", tier=Tier.STUB)
        for mid, iata in ((3, "JFK"), (4, "SIN")):
            net.node(mid, iata)
            net.transit(origin, mid, iata=iata)
            net.transit(dest, mid, iata=iata)
        return Announcement(prefix=PREFIX, origins=(OriginSpec(site_node=origin),))

    def test_invalidated_on_topology_version_bump(self):
        """A compute after a topology mutation equals a fresh engine's."""
        net = Net()
        ann = self._pair(net)
        engine = RoutingEngine(net.topo)
        before = engine.compute(ann)
        assert before.choice_at(2).next_hops() == (3, 4)
        # A third provider interconnecting in London is the nearest
        # exit; the node is absent from every pre-mutation memo.
        net.node(5, "LHR")
        net.transit(1, 5, iata="LHR")
        net.transit(2, 5, iata="LHR")
        after = engine.compute(ann)
        assert after.choice_at(2).next_hops() == (5, 3, 4)
        assert encode_table(after) == encode_table(
            RoutingEngine(net.topo).compute(ann)
        )

    def test_memoizes_within_one_version(self):
        """Within one version every engine ranks with the topology's
        memo: an entry planted there reorders the next compute."""
        net = Net()
        ann = self._pair(net)
        assert RoutingEngine(net.topo).compute(ann).choice_at(2).next_hops() == (3, 4)
        adjacency = flat_adjacency(net.topo)
        adjacency.km[(2 << 32) | 4] = 0.0  # the SIN exit, now "nearest"
        table = RoutingEngine(net.topo).compute(ann)
        assert flat_adjacency(net.topo) is adjacency
        assert table.choice_at(2).next_hops() == (4, 3)


class TestRoutingTableNumNodes:
    def test_defaults_to_unknown(self):
        ann = Announcement(prefix=PREFIX, origins=(OriginSpec(site_node=1),))
        table = RoutingTable.from_rows(ann, 0, 0, [])
        assert table.reachable_fraction() == pytest.approx(0.0)

    def test_engine_populates_denominator(self):
        net = Net()
        origin = net.node(1, "FRA", tier=Tier.CDN)
        stub = net.node(2, "LHR", tier=Tier.STUB)
        net.transit(stub, origin, iata="LHR")
        table = net.routes(origin)
        assert table._num_nodes == net.topo.num_nodes
        assert table.reachable_fraction() == pytest.approx(1.0)

    def test_hidden_from_repr(self):
        ann = Announcement(prefix=PREFIX, origins=(OriginSpec(site_node=1),))
        table = RoutingTable.from_rows(ann, 0, 5, [])
        assert "_num_nodes" not in repr(table)
