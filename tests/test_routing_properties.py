"""Property-based verification of the BGP engine against a brute-force
valley-free oracle.

Hypothesis generates small random topologies; the oracle enumerates every
simple path from each node to the origins, checks valley-freeness under
Gao-Rexford export rules, and computes the best achievable (preference
tier, path length) over *policy-permitted* paths.  Against that oracle
the engine must satisfy:

- **soundness** — every selected route is a valley-free, loop-free path;
- **reachability equivalence** — a node holds a route iff some
  valley-free path exists;
- **tier optimality** — the selected preference tier equals the best
  tier any policy-permitted path achieves (an exporter with a
  customer-tier candidate always *selects* a customer-tier route, so
  tier availability propagates exactly);
- **hop lower bound** — the selected path is at least as long as the
  oracle's optimum.  It may legitimately be *longer*: BGP propagates
  each node's selected best only, so a short provider-path through a
  node whose own best is a peer route is never advertised (hypothesis
  found this — see test_hidden_shorter_path_regression).

A second, exact oracle sits beside it: :func:`fixpoint_routes`, a naive
Gao-Rexford fixpoint that shares no code with the engine's three-stage
sweep.  The engine must match it row for row — tier and ordered
equal-best paths of every node — on 300 seeded random worlds with
spread-out cities and restricted origins, and on named cases after
seed-emulator's CAIDA example and a four-site anycast template.
``tests/test_routing_flat.py`` runs it on the SMALL and DEFAULT worlds.
"""

from __future__ import annotations

import functools
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.explain import provenance
from repro.geo.atlas import load_default_atlas
from repro.netaddr.ipv4 import IPv4Address, IPv4Prefix
from repro.par.cache import encode_table
from repro.routing.engine import RoutingEngine
from repro.routing.route import Announcement, OriginSpec, PrefTier
from repro.topology.asys import (
    AutonomousSystem,
    Interconnect,
    Link,
    LinkKind,
    PoP,
    Tier,
)
from repro.topology.graph import Topology
from repro.topology.ixp import IXP

ATLAS = load_default_atlas()
PREFIX = IPv4Prefix.parse("198.18.0.0/24")
_CITIES = [c.iata for c in ATLAS.cities[:12]]

# A generated topology description: n nodes; for each unordered pair a
# kind in {None, "transit-ab" (a customer of b), "transit-ba", "peer",
# "rs"}.
_EDGE_KINDS = [None, "transit-ab", "transit-ba", "peer", "rs"]


@st.composite
def small_topologies(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    pairs = list(itertools.combinations(range(n), 2))
    kinds = draw(
        st.lists(st.sampled_from(_EDGE_KINDS), min_size=len(pairs),
                 max_size=len(pairs))
    )
    # Transit edges must stay acyclic: orient every customer->provider
    # edge from the higher index to the lower (provider = lower index).
    edges = []
    for (a, b), kind in zip(pairs, kinds):
        if kind is None:
            continue
        if kind == "transit-ab":
            edges.append((b, a, "transit"))  # b is the customer of a
        elif kind == "transit-ba":
            edges.append((b, a, "transit"))
        elif kind == "peer":
            edges.append((a, b, "peer"))
        else:
            edges.append((a, b, "rs"))
    origins = draw(
        st.lists(st.integers(min_value=0, max_value=n - 1), min_size=1,
                 max_size=2, unique=True)
    )
    return n, edges, origins


def build(n, edges):
    topo = Topology()
    ixp = IXP(ixp_id=1, name="ix", city=ATLAS.get("FRA"),
              lan_prefix=IPv4Prefix.parse("172.16.0.0/22"))
    topo.add_ixp(ixp)
    for i in range(n):
        topo.add_node(
            AutonomousSystem(
                node_id=i, asn=i, name=f"as{i}", tier=Tier.TRANSIT,
                home_country="DE",
                pops=(PoP(city=ATLAS.get(_CITIES[i % len(_CITIES)])),),
            )
        )
    addr = 10_000_000
    for a, b, kind in edges:
        ic = Interconnect(city=ATLAS.get("FRA"),
                          addr_a=IPv4Address(addr), addr_b=IPv4Address(addr + 1))
        addr += 2
        if kind == "transit":
            topo.add_link(Link(a=a, b=b, kind=LinkKind.TRANSIT,
                               interconnects=(ic,)))
        elif kind == "peer":
            topo.add_link(Link(a=a, b=b, kind=LinkKind.PEER_PRIVATE,
                               interconnects=(ic,)))
        else:
            topo.add_link(Link(a=a, b=b, kind=LinkKind.PEER_ROUTE_SERVER,
                               interconnects=(ic,), ixp_id=1))
    return topo


def _relationship(topo: Topology, holder: int, neighbor: int) -> str:
    """The holder's view of a neighbor: provider/customer/peer/rs."""
    if neighbor in topo.providers_of(holder):
        return "provider"
    if neighbor in topo.customers_of(holder):
        return "customer"
    for peer, kind in topo.peers_of(holder):
        if peer == neighbor:
            return "rs" if kind is LinkKind.PEER_ROUTE_SERVER else "peer"
    raise AssertionError(f"{neighbor} not adjacent to {holder}")


def is_valley_free(topo: Topology, path: tuple[int, ...]) -> bool:
    """Whether a client→origin path is exportable under Gao-Rexford.

    Walking the announcement from the origin toward the client: it may go
    up (customer→provider) any number of times, cross at most one peer or
    route-server edge, then only go down (provider→customer).
    """
    flow = list(reversed(path))  # origin first
    phase = "up"
    for a, b in zip(flow, flow[1:]):
        rel = _relationship(topo, a, b)  # how a sees b
        if rel == "provider":
            step = "up"  # a exports to its provider: only customer routes
        elif rel in ("peer", "rs"):
            step = "lateral"
        else:
            step = "down"
        if phase == "up":
            if step == "lateral":
                phase = "lateral-done"
            elif step == "down":
                phase = "down"
        elif phase == "lateral-done":
            if step != "down":
                return False
            phase = "down"
        else:  # down
            if step != "down":
                return False
    return True


def _tier_at_client(topo: Topology, path: tuple[int, ...]) -> PrefTier:
    if len(path) == 1:
        return PrefTier.ORIGIN
    rel = _relationship(topo, path[0], path[1])
    return {
        "customer": PrefTier.CUSTOMER,
        "peer": PrefTier.PEER,
        "rs": PrefTier.RS_PEER,
        "provider": PrefTier.PROVIDER,
    }[rel]


def oracle_best(topo: Topology, client: int, origins: list[int]):
    """Best achievable (tier, -hops) over all simple valley-free paths."""
    if client in origins:
        return (PrefTier.ORIGIN, 0)
    n = topo.num_nodes
    best = None
    stack = [(client,)]
    while stack:
        path = stack.pop()
        last = path[-1]
        if last in origins and len(path) > 1:
            if is_valley_free(topo, path):
                tier = _tier_at_client(topo, path)
                key = (int(tier), -(len(path) - 1))
                if best is None or key > best:
                    best = key
            continue
        if len(path) >= n:
            continue
        for neighbor in topo.neighbors_of(last):
            if neighbor not in path:
                stack.append(path + (neighbor,))
    return best


@settings(max_examples=120, deadline=None)
@given(small_topologies())
def test_engine_matches_valley_free_oracle(spec):
    n, edges, origins = spec
    topo = build(n, edges)
    announcement = Announcement(
        prefix=PREFIX,
        origins=tuple(OriginSpec(site_node=o) for o in origins),
    )
    table = RoutingEngine(topo).compute(announcement)
    for client in range(n):
        best = oracle_best(topo, client, origins)
        choice = table.choice_at(client)
        if best is None:
            assert choice is None, (
                f"engine routed unreachable node {client}: {choice}"
            )
            continue
        assert choice is not None, (
            f"engine missed a valid path for node {client} (oracle {best})"
        )
        for route in choice.routes:
            assert is_valley_free(topo, route.path), route.path
            assert route.path[-1] in origins
        best_tier, neg_best_hops = best
        assert int(choice.tier) == best_tier, (
            f"node {client}: engine tier {choice.tier} vs oracle tier "
            f"{best_tier} (edges={edges}, origins={origins})"
        )
        assert choice.hops >= -neg_best_hops, (
            f"node {client}: engine found a shorter path than any "
            f"policy-permitted one?! (edges={edges}, origins={origins})"
        )


def test_hidden_shorter_path_regression():
    """The falsifying example hypothesis found: node 4's best is a
    2-hop peer route, so its customer 5 never hears about the 2-hop
    provider path 5-4-2 and correctly ends up with 3 hops."""
    n = 6
    edges = [(2, 0, "transit"), (0, 4, "peer"), (4, 2, "transit"),
             (5, 4, "transit")]
    topo = build(n, edges)
    table = RoutingEngine(topo).compute(
        Announcement(prefix=PREFIX, origins=(OriginSpec(site_node=2),))
    )
    four = table.choice_at(4)
    assert four.tier is PrefTier.PEER  # prefers the peer route via 0
    assert four.primary.path == (4, 0, 2)
    five = table.choice_at(5)
    assert five.tier is PrefTier.PROVIDER
    # 5 inherits 4's *selected* route, not 4's shortest permitted path.
    assert five.primary.path == (5, 4, 0, 2)


@settings(max_examples=60, deadline=None)
@given(small_topologies())
def test_engine_routes_are_loop_free_and_connected(spec):
    n, edges, origins = spec
    topo = build(n, edges)
    announcement = Announcement(
        prefix=PREFIX,
        origins=tuple(OriginSpec(site_node=o) for o in origins),
    )
    table = RoutingEngine(topo).compute(announcement)
    for client, choice in table.best.items():
        for route in choice.routes:
            assert len(set(route.path)) == len(route.path)
            # Consecutive path elements must actually be adjacent.
            for a, b in zip(route.path, route.path[1:]):
                assert topo.has_link(a, b)


@settings(max_examples=60, deadline=None)
@given(small_topologies())
def test_forwarding_terminates_on_random_topologies(spec):
    """Hot-potato forwarding must terminate at an origin from every
    routed node, with RTT at least the fiber bound to the origin."""
    from repro.routing.forwarding import trace_forwarding_path

    n, edges, origins = spec
    topo = build(n, edges)
    announcement = Announcement(
        prefix=PREFIX,
        origins=tuple(OriginSpec(site_node=o) for o in origins),
    )
    table = RoutingEngine(topo).compute(announcement)
    for client in range(n):
        start = topo.node(client).pops[0].city.location
        fp = trace_forwarding_path(topo, table, client, start)
        if table.choice_at(client) is None:
            assert fp is None
            continue
        assert fp is not None
        assert fp.origin in origins
        dest = topo.node(fp.origin).pops[0].city.location
        assert fp.rtt_ms >= start.distance_km(dest) / 100.0 - 1e-9
        assert fp.distance_km >= start.distance_km(dest) - 1e-6


# ----------------------------------------------------------------------
# Fixpoint oracle: a naive Gao-Rexford solver, independent of the engine
# ----------------------------------------------------------------------
#: Cap on kept equal-best paths, as the engine documents it.
ORACLE_CAP = 16

#: Relationship (how a node sees a neighbor) -> tier of a route learned
#: from that neighbor.
_LEARNED_TIER = {
    "customer": PrefTier.CUSTOMER,
    "peer": PrefTier.PEER,
    "rs": PrefTier.RS_PEER,
    "provider": PrefTier.PROVIDER,
}


def _oracle_exit_km(topo: Topology, node: int, neighbor: int) -> float:
    """Km from the node's nearest PoP to its link's nearest interconnect."""
    link = topo.link_between(node, neighbor)
    km = min(
        ic.city.location.distance_km(pop.city.location)
        for ic in link.interconnects
        for pop in topo.node(node).pops
    )
    return round(km, 3)


def _relationships(topo: Topology) -> dict[int, list[tuple[int, str]]]:
    """node -> [(neighbor, how the node sees it)], from the link list."""
    view: dict[int, list[tuple[int, str]]] = {
        node.node_id: [] for node in topo.nodes()
    }
    for link in topo.links():
        if link.kind is LinkKind.TRANSIT:  # a is the customer of b
            view[link.a].append((link.b, "provider"))
            view[link.b].append((link.a, "customer"))
        else:
            kind = "rs" if link.kind is LinkKind.PEER_ROUTE_SERVER else "peer"
            view[link.a].append((link.b, kind))
            view[link.b].append((link.a, kind))
    return view


def fixpoint_routes(
    topo: Topology, announcement: Announcement
) -> dict[int, tuple[PrefTier, list[tuple[int, ...]]]]:
    """Every routed node's ``(tier, ordered equal-best paths)``.

    Loops over the nodes until nothing changes.  Each non-origin node
    takes its neighbors' primaries under the export rules — a
    customer-learned or origin route goes to anyone, any other route to
    customers only, an origin announces only where its spec allows,
    loop-free paths only — keeps the best tier, then the shortest
    length, and orders the kept paths by (exit km, next hop, origin).
    """
    specs = {spec.site_node: spec for spec in announcement.origins}
    view = _relationships(topo)
    state = {site: (PrefTier.ORIGIN, [(site,)]) for site in specs}
    km: dict[tuple[int, int], float] = {}

    def rank(node: int, path: tuple[int, ...]) -> tuple[float, int, int]:
        if (node, path[1]) not in km:
            km[node, path[1]] = _oracle_exit_km(topo, node, path[1])
        return (km[node, path[1]], path[1], path[-1])

    for _sweep in range(10 * len(view) + 10):
        changed = False
        for node in sorted(view):
            if node in specs:
                continue
            offers = []
            for neighbor, relation in view[node]:
                held = state.get(neighbor)
                if held is None:
                    continue
                tier, paths = held
                exportable = (
                    relation == "provider"
                    or tier in (PrefTier.CUSTOMER, PrefTier.ORIGIN)
                )
                spec = specs.get(neighbor)
                if spec is not None and not spec.announces_to(node):
                    exportable = False
                if exportable and node not in paths[0]:
                    offers.append((_LEARNED_TIER[relation], (node,) + paths[0]))
            routes = None
            if offers:
                top = max(tier for tier, _ in offers)
                length = min(len(p) for tier, p in offers if tier == top)
                kept = sorted(
                    (p for tier, p in offers if tier == top and len(p) == length),
                    key=functools.partial(rank, node),
                )
                routes = (top, kept[:ORACLE_CAP])
            if state.get(node) != routes:
                changed = True
                if routes is None:
                    del state[node]
                else:
                    state[node] = routes
        if not changed:
            return state
    raise AssertionError("the fixpoint did not converge")


def assert_matches_oracle(topo: Topology, announcement: Announcement, table) -> None:
    """Row for row: tier and ordered paths of every node, read through
    ``best``, ``choice_at``, ``route_at`` and ``catchment_of``."""
    expected = fixpoint_routes(topo, announcement)
    assert set(table.best) == set(expected)
    for node in topo.nodes():
        node_id = node.node_id
        choice = table.choice_at(node_id)
        if node_id not in expected:
            assert choice is None, f"node {node_id} routed, oracle: unreachable"
            assert table.route_at(node_id) is None
            assert table.catchment_of(node_id) is None
            continue
        tier, paths = expected[node_id]
        assert choice is not None, f"node {node_id} unrouted, oracle: {paths}"
        got = (choice.tier, [route.path for route in choice.routes])
        assert got == (tier, paths), f"node {node_id}: engine {got}, oracle {(tier, paths)}"
        assert table.best[node_id] == choice
        assert table.route_at(node_id).path == paths[0]
        assert table.catchment_of(node_id) == paths[0][-1]


#: Cities the oracle's random worlds draw PoPs and interconnects from:
#: spread over every continent, so exit km breaks ties.
_WORLD_CITIES = ["FRA", "LHR", "AMS", "JFK", "IAD", "LAX", "SJC", "GRU",
                 "SIN", "NRT", "SYD", "JNB", "DXB", "BOM"]


def random_world(seed: int) -> tuple[Topology, Announcement]:
    """A seeded world of 2-16 ASes: random PoP and interconnect cities,
    transit (acyclic), private and route-server peering, 1-3 origins,
    some announcing to a subset of their neighbors only."""
    rng = random.Random(seed)
    n = rng.randint(2, 16)
    topo = Topology()
    topo.add_ixp(IXP(ixp_id=1, name="ix", city=ATLAS.get("FRA"),
                     lan_prefix=IPv4Prefix.parse("172.16.0.0/22")))
    for i in range(n):
        cities = rng.sample(_WORLD_CITIES, rng.randint(1, 2))
        topo.add_node(AutonomousSystem(
            node_id=i, asn=i, name=f"as{i}", tier=Tier.TRANSIT,
            home_country=ATLAS.get(cities[0]).country,
            pops=tuple(PoP(city=ATLAS.get(c)) for c in cities),
        ))
    density = rng.uniform(0.15, 0.5)
    addr = 10_000_000
    for a, b in itertools.combinations(range(n), 2):
        if rng.random() > density:
            continue
        interconnects = []
        for city in rng.sample(_WORLD_CITIES, rng.randint(1, 2)):
            interconnects.append(Interconnect(
                city=ATLAS.get(city), addr_a=IPv4Address(addr),
                addr_b=IPv4Address(addr + 1)))
            addr += 2
        kind = rng.choice(["transit", "transit", "peer", "rs"])
        if kind == "transit":
            # Providers have the lower index: the hierarchy stays acyclic.
            link = Link(a=b, b=a, kind=LinkKind.TRANSIT,
                        interconnects=tuple(interconnects))
        elif kind == "peer":
            link = Link(a=a, b=b, kind=LinkKind.PEER_PRIVATE,
                        interconnects=tuple(interconnects))
        else:
            link = Link(a=a, b=b, kind=LinkKind.PEER_ROUTE_SERVER,
                        interconnects=tuple(interconnects), ixp_id=1)
        topo.add_link(link)
    specs = []
    for site in rng.sample(range(n), rng.randint(1, min(3, n))):
        neighbors = None
        adjacent = sorted(topo.neighbors_of(site))
        if adjacent and rng.random() < 0.3:
            neighbors = frozenset(
                rng.sample(adjacent, rng.randint(0, len(adjacent)))
            )
        specs.append(OriginSpec(site_node=site, neighbors=neighbors))
    return topo, Announcement(prefix=PREFIX, origins=tuple(specs))


@pytest.mark.parametrize("block", range(6))
def test_engine_matches_fixpoint_oracle_on_random_worlds(block):
    """50 seeded random worlds per block, 300 in all.  Each announcement
    is computed again under a provenance capture, which must encode the
    same table and record one selection trail per routed node."""
    for seed in range(block * 50, (block + 1) * 50):
        topo, announcement = random_world(seed)
        table = RoutingEngine(topo).compute(announcement)
        assert_matches_oracle(topo, announcement, table)
        with provenance.capturing() as recorder:
            captured = RoutingEngine(topo).compute(announcement)
        assert encode_table(captured) == encode_table(table)
        assert sorted(recorder.selection) == sorted(
            (str(PREFIX), node) for node in table.best
        )


def test_random_worlds_exercise_every_mechanism():
    """The random worlds reach every tier, break ties on exit km, cap
    nothing below the oracle's notice, and restrict some origins."""
    tiers = set()
    km_ordered = restricted = 0
    for seed in range(300):
        topo, announcement = random_world(seed)
        restricted += any(s.neighbors is not None for s in announcement.origins)
        for tier, paths in fixpoint_routes(topo, announcement).values():
            tiers.add(tier)
            kms = [_oracle_exit_km(topo, p[0], p[1]) for p in paths if len(p) > 1]
            km_ordered += len(set(kms)) > 1
    assert tiers == set(PrefTier)
    assert km_ordered > 50
    assert restricted > 30


# ----------------------------------------------------------------------
# Named cases: each compared with the oracle, plus one derived by hand
# ----------------------------------------------------------------------
def _named_world(pops: dict[int, str], links, ixps=()) -> Topology:
    """A topology from ``{node: PoP city}`` and ``(a, b, kind, city,
    ixp id)`` links; transit links read ``a`` as the customer of ``b``."""
    topo = Topology()
    for ixp_id, city in ixps:
        topo.add_ixp(IXP(ixp_id=ixp_id, name=f"ix{ixp_id}", city=ATLAS.get(city),
                         lan_prefix=IPv4Prefix.parse(f"172.16.{ixp_id}.0/24")))
    for node_id, city in pops.items():
        topo.add_node(AutonomousSystem(
            node_id=node_id, asn=node_id, name=f"as{node_id}", tier=Tier.TRANSIT,
            home_country=ATLAS.get(city).country, pops=(PoP(city=ATLAS.get(city)),),
        ))
    addr = 10_000_000
    for a, b, kind, city, ixp_id in links:
        ic = Interconnect(city=ATLAS.get(city), addr_a=IPv4Address(addr),
                          addr_b=IPv4Address(addr + 1))
        addr += 2
        topo.add_link(Link(a=a, b=b, kind=kind, interconnects=(ic,), ixp_id=ixp_id))
    return topo


def test_caida_clique_and_tier1_ring():
    """After seed-emulator's CAIDA example: a 4-AS clique peering at
    IX100 and a 6-AS ring peering at IX100-106.  Site 900 hangs off ring
    AS 42, site 901 off clique AS 129."""
    ixps = [(100, "AMS"), (101, "FRA"), (102, "LHR"), (103, "CDG"),
            (105, "JFK"), (106, "SIN")]
    pops = {127: "AMS", 128: "AMS", 129: "AMS", 130: "SIN",
            40: "AMS", 41: "FRA", 42: "LHR", 43: "CDG", 44: "JFK", 45: "SIN",
            900: "LHR", 901: "AMS"}
    public = LinkKind.PEER_PUBLIC
    links = [(a, b, public, "AMS", 100)
             for a, b in itertools.combinations([127, 128, 129, 130], 2)]
    ring = [(40, 41, 101), (41, 42, 102), (42, 43, 103), (43, 44, 105),
            (44, 45, 106), (45, 40, 100)]
    links += [(a, b, public, dict(ixps)[ixp_id], ixp_id) for a, b, ixp_id in ring]
    transit = LinkKind.TRANSIT
    links += [(40, 127, transit, "AMS", None), (45, 128, transit, "AMS", None),
              (44, 130, transit, "SIN", None), (900, 42, transit, "LHR", None),
              (901, 129, transit, "AMS", None)]
    topo = _named_world(pops, links, ixps)
    announcement = Announcement(
        prefix=PREFIX, origins=(OriginSpec(site_node=900), OriginSpec(site_node=901))
    )
    table = RoutingEngine(topo).compute(announcement)
    assert_matches_oracle(topo, announcement, table)
    # Ring AS 40 is three hops from site 900 along the ring too, but that
    # path crosses two peering links; valley-free export leaves it the
    # provider route through the clique.
    assert table.choice_at(41).primary.path == (41, 42, 900)
    assert table.choice_at(40).tier is PrefTier.PROVIDER
    assert table.route_at(40).path == (40, 127, 129, 901)


def test_anycast_template_lands_each_region_on_its_site():
    """SNIPPET 3's anycast template: four sites (US-East, US-West,
    EU-West, APAC) announce one prefix, each through its own transit.
    Each region's client stub buys transit from its own region's transit
    and one other; both offers are equally long, and the nearest exit
    decides."""
    transits = {10: "IAD", 11: "SJC", 12: "LHR", 13: "SIN"}
    sites = {20: "IAD", 21: "SJC", 22: "LHR", 23: "SIN"}
    clients = {30: "BOS", 31: "LAX", 32: "AMS", 33: "NRT"}
    transit = LinkKind.TRANSIT
    links = [(a, b, LinkKind.PEER_PRIVATE, "ORD", None)
             for a, b in itertools.combinations(transits, 2)]
    links += [(site, site - 10, transit, city, None) for site, city in sites.items()]
    second = {30: 12, 31: 13, 32: 10, 33: 11}
    for client in clients:
        home = client - 20
        links.append((client, home, transit, transits[home], None))
        links.append((client, second[client], transit, transits[second[client]], None))
    topo = _named_world({**transits, **sites, **clients}, links)
    announcement = Announcement(
        prefix=PREFIX, origins=tuple(OriginSpec(site_node=s) for s in sites)
    )
    table = RoutingEngine(topo).compute(announcement)
    assert_matches_oracle(topo, announcement, table)
    for client in clients:
        assert len(table.choice_at(client).routes) == 2
        assert table.catchment_of(client) == client - 10
