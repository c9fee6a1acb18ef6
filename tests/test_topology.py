"""Unit tests for topology value types, the graph container, and the builder."""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.cdn.edgio import build_edgio
from repro.cdn.imperva import build_imperva
from repro.experiments.config import CONFIGS, DEFAULT, LARGE, SMALL
from repro.geo.areas import Area
from repro.geo.atlas import load_default_atlas
from repro.geo.coords import great_circle_km
from repro.netaddr.ipv4 import IPv4Address, IPv4Prefix
from repro.par.cache import topology_hash
from repro.tangled.testbed import build_tangled
from repro.topology.asys import (
    AutonomousSystem,
    Interconnect,
    Link,
    LinkKind,
    PoP,
    Tier,
)
from repro.topology.builder import AddressPlan, InternetBuilder, TopologyParams
from repro.topology.graph import Topology, TopologyError
from repro.topology.io import dump_topology
from repro.topology.ixp import IXP
from repro.topology.stats import summarize

ATLAS = load_default_atlas()


def make_as(node_id, iatas, tier=Tier.TRANSIT, home="US"):
    return AutonomousSystem(
        node_id=node_id,
        asn=node_id,
        name=f"as{node_id}",
        tier=tier,
        home_country=home,
        pops=tuple(PoP(city=ATLAS.get(i)) for i in iatas),
        infra_prefix=None,
    )


def make_link(a, b, kind=LinkKind.TRANSIT, iata="FRA", ixp_id=None, base=0):
    ic = Interconnect(
        city=ATLAS.get(iata),
        addr_a=IPv4Address(10_000_000 + base),
        addr_b=IPv4Address(10_000_001 + base),
    )
    return Link(a=a, b=b, kind=kind, interconnects=(ic,), ixp_id=ixp_id)


#: sha256 of the SMALL topology's links at topology seed + 375, pinned
#: before the builder learned to skip provider loops.
SMALL_375_LINK_DIGEST = (
    "4e79ecd5398b406692e6491337bacf69cd3a30a1b6d812951810bac234c55717"
)

#: ``topology_hash`` of each preset's topology, built at its own seeds and
#: with every seed shifted by 1000 (perfbench's samples shift them by
#: multiples of 1000), before and after the Edgio, Imperva and Tangled
#: deployments.  Any change to what the builder or the site attachment
#: draws from its RNG, or to which transits it ranks nearest, moves one.
BUILD_HASHES = {
    ("small", 0): (
        "390f99d01c85851534259d65c0d73b9e400734af652343395ca0ff9cf5920b87",
        "152ed165cb30a6806152771322f6a6e185a84e73af723e9181e1bfaef728cd12",
    ),
    ("small", 1000): (
        "38b07c3ceb4192524081c1d4865b9ede81252f902761104f6ca041d622276d63",
        "f1ada6394bb364913ffb6361d1cab4f7726786fb2808fda62995fb6207d1da84",
    ),
    ("default", 0): (
        "4f00541f57a78d187771cd6a4c563471560db4d6a40ae2604b231c5feea7b93b",
        "f1869e509e70346d75d6cdc875230a18e8240c49a4dfd564ab88e402cfbf0901",
    ),
    ("default", 1000): (
        "d83d0e7f45f5618c39a6ce0eb16aef355b98953ebcdcf4b1ecf744e53877e022",
        "9bc0c7f401fbd2a33b18ec8198aa52106b2f9cde78101641ac761fd009adfbde",
    ),
    ("large", 0): (
        "8d66d1f64c8c3ad8695d5f0168f5fc3ce67132fead61fe5af2c26019cca3c7df",
        "3a9e44cc14667cdb329339b2b75dbe49a5645ba2b41d23b5fd13b4ef78431eea",
    ),
    ("large", 1000): (
        "5c3c187713edaf7f78cd08f44cc7d0c2a618d9aff4809bd933a87aca6a45afdf",
        "1f71caba0739063eb07d69a735313f076943a0868a2a2e4c5822eb825b84a4a7",
    ),
}

PRESETS = {"small": SMALL, "default": DEFAULT, "large": LARGE}


def _shifted(cfg, shift):
    return replace(cfg.topology, seed=cfg.topology.seed + shift)


def _link_digest(topo):
    links = dump_topology(topo)["links"]
    return hashlib.sha256(
        json.dumps(links, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


class TestAsysTypes:
    def test_as_requires_pops(self):
        with pytest.raises(ValueError):
            AutonomousSystem(1, 1, "x", Tier.STUB, "US", pops=())

    def test_as_rejects_duplicate_pops(self):
        with pytest.raises(ValueError):
            make_as(1, ["FRA", "FRA"])

    def test_nearest_pop(self):
        node = make_as(1, ["FRA", "NRT", "JFK"])
        assert node.nearest_pop(ATLAS.get("MUC")).iata == "FRA"
        assert node.nearest_pop(ATLAS.get("ICN")).iata == "NRT"

    def test_nearest_pop_km(self):
        node = make_as(1, ["FRA", "NRT", "JFK"])
        for iata in ("MUC", "ICN", "BOS", "FRA"):
            city = ATLAS.get(iata)
            nearest = node.nearest_pop(city).city
            assert node.nearest_pop_km(city) == great_circle_km(
                nearest.location, city.location)

    def test_site_detection(self):
        site = AutonomousSystem(
            1_000_000, 64500, "site", Tier.CDN, "US",
            pops=(PoP(city=ATLAS.get("IAD")),),
        )
        assert site.is_site
        assert not make_as(5, ["FRA"]).is_site

    def test_link_self_loop_rejected(self):
        with pytest.raises(ValueError):
            make_link(1, 1)

    def test_link_requires_interconnect(self):
        with pytest.raises(ValueError):
            Link(a=1, b=2, kind=LinkKind.TRANSIT, interconnects=())

    def test_ixp_link_requires_ixp_id(self):
        with pytest.raises(ValueError):
            make_link(1, 2, kind=LinkKind.PEER_PUBLIC)

    def test_non_ixp_link_rejects_ixp_id(self):
        with pytest.raises(ValueError):
            make_link(1, 2, kind=LinkKind.TRANSIT, ixp_id=3)

    def test_link_other_and_addr_of(self):
        link = make_link(1, 2)
        assert link.other(1) == 2
        assert link.other(2) == 1
        with pytest.raises(ValueError):
            link.other(3)
        ic = link.interconnects[0]
        assert link.addr_of(1, ic) == ic.addr_a
        assert link.addr_of(2, ic) == ic.addr_b
        with pytest.raises(ValueError):
            link.addr_of(3, ic)


class TestTopologyContainer:
    def test_duplicate_node_rejected(self):
        topo = Topology()
        topo.add_node(make_as(1, ["FRA"]))
        with pytest.raises(TopologyError):
            topo.add_node(make_as(1, ["AMS"]))

    def test_link_to_unknown_node_rejected(self):
        topo = Topology()
        topo.add_node(make_as(1, ["FRA"]))
        with pytest.raises(TopologyError):
            topo.add_link(make_link(1, 2))

    def test_duplicate_link_rejected(self):
        topo = Topology()
        topo.add_node(make_as(1, ["FRA"]))
        topo.add_node(make_as(2, ["AMS"]))
        topo.add_link(make_link(1, 2))
        with pytest.raises(TopologyError):
            topo.add_link(make_link(2, 1, base=10))

    def test_transit_adjacency_direction(self):
        topo = Topology()
        topo.add_node(make_as(1, ["FRA"]))
        topo.add_node(make_as(2, ["AMS"]))
        topo.add_link(make_link(1, 2))  # 1 is the customer of 2
        assert topo.providers_of(1) == [2]
        assert topo.customers_of(2) == [1]
        assert topo.peers_of(1) == []

    def test_peer_adjacency_symmetric(self):
        topo = Topology()
        topo.add_node(make_as(1, ["FRA"]))
        topo.add_node(make_as(2, ["AMS"]))
        topo.add_link(make_link(1, 2, kind=LinkKind.PEER_PRIVATE))
        assert topo.peers_of(1) == [(2, LinkKind.PEER_PRIVATE)]
        assert topo.peers_of(2) == [(1, LinkKind.PEER_PRIVATE)]

    def test_interface_registry_and_ixp_invisibility(self):
        topo = Topology()
        topo.add_node(make_as(1, ["FRA"]))
        topo.add_node(make_as(2, ["FRA"]))
        ixp = IXP(ixp_id=7, name="ix", city=ATLAS.get("FRA"),
                  lan_prefix=IPv4Prefix.parse("172.16.0.0/24"))
        topo.add_ixp(ixp)
        link = make_link(1, 2, kind=LinkKind.PEER_PUBLIC, ixp_id=7)
        topo.add_link(link)
        ic = link.interconnects[0]
        info = topo.interface_info(ic.addr_a)
        assert info is not None and info.node_id == 1 and info.ixp_id == 7
        # IXP-LAN addresses are invisible in BGP (owner_asn -> None).
        assert topo.owner_asn(ic.addr_a) is None

    def test_owner_asn_for_infrastructure(self):
        topo = Topology()
        topo.add_node(make_as(1, ["FRA"]))
        topo.add_node(make_as(2, ["AMS"]))
        link = make_link(1, 2)
        topo.add_link(link)
        ic = link.interconnects[0]
        assert topo.owner_asn(ic.addr_a) == 1
        assert topo.owner_asn(ic.addr_b) == 2
        assert topo.owner_asn(IPv4Address(12345)) is None

    def test_interface_address_reuse_rejected(self):
        topo = Topology()
        for nid, city in ((1, "FRA"), (2, "AMS"), (3, "LHR")):
            topo.add_node(make_as(nid, [city]))
        topo.add_link(make_link(1, 2, base=0))
        with pytest.raises(TopologyError):
            topo.add_link(make_link(1, 3, base=0))  # same interface addrs

    def test_version_bumps_on_mutation(self):
        topo = Topology()
        v0 = topo.version
        topo.add_node(make_as(1, ["FRA"]))
        assert topo.version > v0

    def test_validate_detects_partition(self):
        topo = Topology()
        topo.add_node(make_as(1, ["FRA"], tier=Tier.TIER1))
        topo.add_node(make_as(2, ["AMS"], tier=Tier.STUB))
        topo.add_node(make_as(3, ["LHR"], tier=Tier.TRANSIT))
        topo.add_link(make_link(2, 3))  # 2 -> 3, but 3 has no provider
        with pytest.raises(TopologyError):
            topo.validate()

    def test_validate_detects_transit_cycle(self):
        topo = Topology()
        for nid, city in ((1, "FRA"), (2, "AMS"), (3, "LHR"), (9, "JFK")):
            tier = Tier.TIER1 if nid == 9 else Tier.TRANSIT
            topo.add_node(make_as(nid, [city], tier=tier))
        topo.add_link(make_link(1, 2, base=0))
        topo.add_link(make_link(2, 3, base=10))
        topo.add_link(make_link(3, 1, base=20))
        with pytest.raises(TopologyError):
            topo.validate()


class TestInternetBuilder:
    def test_same_seed_same_topology(self):
        params = TopologyParams(seed=3, num_tier1=4, num_transit=30, num_stubs=60)
        t1 = InternetBuilder(params).build()
        t2 = InternetBuilder(params).build()
        assert t1.num_nodes == t2.num_nodes
        assert t1.num_links == t2.num_links
        names1 = sorted(n.name for n in t1.nodes())
        names2 = sorted(n.name for n in t2.nodes())
        assert names1 == names2
        kinds1 = sorted((l.a, l.b, l.kind.value) for l in t1.links())
        kinds2 = sorted((l.a, l.b, l.kind.value) for l in t2.links())
        assert kinds1 == kinds2

    def test_different_seed_different_topology(self):
        p1 = TopologyParams(seed=3, num_tier1=4, num_transit=30, num_stubs=60)
        p2 = TopologyParams(seed=4, num_tier1=4, num_transit=30, num_stubs=60)
        t1 = InternetBuilder(p1).build()
        t2 = InternetBuilder(p2).build()
        links1 = sorted((l.a, l.b) for l in t1.links())
        links2 = sorted((l.a, l.b) for l in t2.links())
        assert links1 != links2

    def test_node_counts_match_params(self, tiny_topology):
        summary = summarize(tiny_topology)
        assert summary.nodes_by_tier[Tier.TIER1] == 4
        assert summary.nodes_by_tier[Tier.TRANSIT] == 40
        assert summary.nodes_by_tier[Tier.STUB] == 120

    def test_stub_area_quota_roughly_matches_weights(self, tiny_topology):
        summary = summarize(tiny_topology)
        total = sum(summary.stubs_by_area.values())
        assert total == 120
        # EMEA carries the largest share by construction.
        assert summary.stubs_by_area[Area.EMEA] == max(summary.stubs_by_area.values())

    def test_tier1_clique(self, tiny_topology):
        from repro.topology.asys import Tier as T

        tier1 = [n.node_id for n in tiny_topology.nodes() if n.tier is T.TIER1]
        for i, a in enumerate(tier1):
            for b in tier1[i + 1 :]:
                assert tiny_topology.has_link(a, b)

    def test_validates_after_build(self, tiny_topology):
        tiny_topology.validate()  # must not raise

    def test_every_stub_has_a_provider(self, tiny_topology):
        for node in tiny_topology.nodes():
            if node.tier is Tier.STUB:
                assert tiny_topology.providers_of(node.node_id)

    def test_ixps_created_with_members(self, tiny_topology):
        ixps = list(tiny_topology.ixps())
        assert ixps
        assert any(ixp.members for ixp in ixps)

    def test_route_server_members_subset_of_members(self, tiny_topology):
        for ixp in tiny_topology.ixps():
            assert ixp.route_server_members <= ixp.members

    @pytest.mark.parametrize("cfg", CONFIGS, ids=lambda cfg: cfg.name)
    def test_every_preset_topology_builds(self, cfg):
        params = cfg.topology
        summary = summarize(InternetBuilder(params).build())
        assert summary.nodes_by_tier[Tier.TIER1] == params.num_tier1
        assert summary.nodes_by_tier[Tier.TRANSIT] == params.num_transit
        assert summary.nodes_by_tier[Tier.STUB] == params.num_stubs

    @pytest.mark.parametrize(
        ("cfg", "shift"), [(SMALL, 376), (LARGE, 1376), (LARGE, 2701)],
        ids=["small+376", "large+1376", "large+2701"],
    )
    def test_intercontinental_transit_closes_no_cycle(self, cfg, shift):
        """Seeds whose intercontinental draw would close a longer
        customer-provider loop (EMEA -> NA -> APAC -> EMEA) still build:
        the builder skips that link instead of failing validation."""
        topo = InternetBuilder(_shifted(cfg, shift)).build()
        topo.validate()

    def test_cycle_guard_leaves_buildable_worlds_alone(self):
        """The guard draws nothing from the RNG, so a seed that never met
        a would-be cycle keeps every link, byte for byte."""
        topo = InternetBuilder(_shifted(SMALL, 375)).build()
        assert _link_digest(topo) == SMALL_375_LINK_DIGEST

    @pytest.mark.parametrize(("name", "shift"), sorted(BUILD_HASHES))
    def test_build_and_deployments_pinned(self, name, shift):
        cfg = PRESETS[name]
        topo = InternetBuilder(_shifted(cfg, shift)).build()
        before = topology_hash(topo)
        seed = cfg.deployment_seed + shift
        build_edgio(topo, seed=seed)
        build_imperva(topo, seed=seed + 1)
        build_tangled(topo, seed=seed + 2)
        assert (before, topology_hash(topo)) == BUILD_HASHES[(name, shift)]

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            TopologyParams(num_tier1=2)
        with pytest.raises(ValueError):
            TopologyParams(transit_pops_min=3, transit_pops_max=2)

    def test_address_plan_attached(self, tiny_topology):
        plan = tiny_topology.address_plan
        assert isinstance(plan, AddressPlan)

    def test_infra_interfaces_within_as_prefix(self, tiny_topology):
        for link in tiny_topology.links():
            if link.kind is not LinkKind.TRANSIT:
                continue
            node_a = tiny_topology.node(link.a)
            for ic in link.interconnects:
                assert ic.addr_a in node_a.infra_prefix
