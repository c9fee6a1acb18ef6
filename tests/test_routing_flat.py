"""The packed routing store against pinned digests and the fixpoint oracle.

The engine's one sweep writes a packed-column
:class:`repro.routing.table.RoutingTable`.  Its output is pinned two
ways: table and selection-trail digests per preset, and a row-for-row
comparison with the naive fixpoint solver of
``tests/test_routing_properties.py``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import weakref

import pytest

from repro.cdn.edgio import build_edgio
from repro.cdn.imperva import build_imperva
from repro.experiments.config import DEFAULT, LARGE, SMALL
from repro.explain import provenance
from repro.measurement.engine import ServiceRegistry
from repro.netaddr.ipv4 import IPv4Prefix
from repro.par.cache import decode_table, encode_table, tables_digest
from repro.routing.engine import RoutingEngine
from repro.routing.route import Announcement, OriginSpec
from repro.routing.table import RoutingTable
from repro.tangled.testbed import build_tangled
from repro.topology.asys import Tier
from repro.topology.builder import InternetBuilder
from repro.topology.graph import Topology
from tests.test_routing import Net
from tests.test_routing_properties import assert_matches_oracle, fixpoint_routes

PREFIX = IPv4Prefix.parse("198.18.0.0/24")

#: ``repro digest`` of each preset's 27 announcements (the LARGE one is
#: also perfbench's ``routing-large`` pin).
TABLES_DIGESTS = {
    "small": "6829ed2a9a305d1269ccc2900c1f54ce31d9f4fcbfaedecdb1389033760ee1f0",
    "default": "889ef8d3353affa379cadda0916e62eefc81b841c86ca53f77878acf7c6bb334",
    "large": "c28ab2407228cdf1b63e8a0853ccd68483f4dd998a6c4128bcb5b577dc6b0e20",
}

#: :func:`trail_digest` of SMALL's 27 announcements.
SMALL_TRAIL_DIGEST = (
    "30b687738ca76d368341741551fe65ddb77c5b8b74104261da2cf9c302c38ebe"
)

PRESETS = {"small": SMALL, "default": DEFAULT, "large": LARGE}


def deployed(name: str) -> tuple[Topology, list[Announcement]]:
    """A preset's topology and the announcements its deployments
    register, in registration order (the build steps of ``World``)."""
    cfg = PRESETS[name]
    topology = InternetBuilder(cfg.topology).build()
    edgio = build_edgio(topology, seed=cfg.deployment_seed)
    imperva = build_imperva(topology, seed=cfg.deployment_seed + 1)
    tangled = build_tangled(topology, seed=cfg.deployment_seed + 2)
    registry = ServiceRegistry()
    for deployment in (edgio.eg3, edgio.eg4, imperva.im6, imperva.ns, tangled):
        deployment.register(registry)
    return topology, registry.announcements()


def trail_digest(topology: Topology, announcements: list[Announcement]) -> str:
    """SHA-256 over every selection trail (sorted by prefix and node),
    then every breadcrumb, of fresh uncached computes under capture."""
    engine = RoutingEngine(topology)
    with provenance.capturing() as recorder:
        for announcement in announcements:
            engine.compute_uncached(announcement)
    hasher = hashlib.sha256()
    for key in sorted(recorder.selection):
        trail = recorder.selection[key].to_dict()
        hasher.update(json.dumps(trail, sort_keys=True).encode())
    for name, fields in recorder.events:
        hasher.update(
            json.dumps([name, fields], sort_keys=True, default=str).encode()
        )
    return hasher.hexdigest()


@pytest.fixture(scope="module")
def presets():
    """:func:`deployed`, each preset built at most once per module."""
    built: dict[str, tuple[Topology, list[Announcement]]] = {}

    def get(name: str) -> tuple[Topology, list[Announcement]]:
        if name not in built:
            built[name] = deployed(name)
        return built[name]

    return get


class TestGoldenDigests:
    @pytest.mark.parametrize("name", sorted(TABLES_DIGESTS))
    def test_tables_digest(self, name, presets):
        topology, announcements = presets(name)
        assert len(announcements) == 27
        tables = RoutingEngine(topology).compute_many(announcements)
        assert tables_digest(tables) == TABLES_DIGESTS[name]

    def test_small_trail_digest(self, presets):
        assert trail_digest(*presets("small")) == SMALL_TRAIL_DIGEST


class TestSmallWorldEquivalence:
    def test_every_announcement_matches(self, presets):
        """Every SMALL announcement, row for row against the oracle."""
        topology, announcements = presets("small")
        engine = RoutingEngine(topology)
        for announcement in announcements:
            table = engine.compute_uncached(announcement)
            assert_matches_oracle(topology, announcement, table)


class TestDefaultTopologyEquivalence:
    def test_anycast_announcement_matches(self, presets):
        topology, _announcements = presets("default")
        stubs = [n.node_id for n in topology.nodes() if n.tier is Tier.STUB]
        announcement = Announcement(
            prefix=PREFIX,
            origins=(OriginSpec(site_node=stubs[0]),
                     OriginSpec(site_node=stubs[len(stubs) // 2]),
                     OriginSpec(site_node=stubs[-1])),
        )
        table = RoutingEngine(topology).compute_uncached(announcement)
        assert_matches_oracle(topology, announcement, table)


class TestExplainTrailParity:
    """A provenance capture records trails from the same sweep, and the
    table computed under capture encodes identically."""

    def test_trails_and_digest_under_capture(self, tiny_topology):
        stub = next(n.node_id for n in tiny_topology.nodes()
                    if n.tier is Tier.STUB)
        announcement = Announcement(
            prefix=PREFIX, origins=(OriginSpec(site_node=stub),)
        )
        engine = RoutingEngine(tiny_topology)
        baseline = engine.compute_uncached(announcement)
        with provenance.capturing() as recorder:
            captured = engine.compute_uncached(announcement)
        assert isinstance(captured, RoutingTable)
        assert encode_table(captured) == encode_table(baseline)
        trailed = [
            node_id for node_id in captured.best
            if recorder.selection_for(str(PREFIX), node_id) is not None
        ]
        assert trailed == list(captured.best)


class TestLazyIndex:
    def test_construction_sorts_nothing_and_lookups_answer(
            self, presets, monkeypatch):
        """A table sorts its bisect index on the first lookup, not when
        it is built, stored or loaded."""
        from repro.routing import table as table_module

        topology, announcements = presets("small")
        engine = RoutingEngine(topology)
        reference = engine.compute_uncached(announcements[0])
        expected = {
            node_id: (reference.next_hops_at(node_id),
                      reference.catchment_of(node_id))
            for node_id in reference.best
        }
        sorts = []

        def counting_sorted(*args, **kwargs):
            sorts.append(args)
            return sorted(*args, **kwargs)

        monkeypatch.setattr(table_module, "sorted", counting_sorted,
                            raising=False)
        computed = engine.compute_uncached(announcements[0])
        loaded = decode_table(encode_table(computed), announcements[0],
                              computed.topology_version)
        packed = RoutingTable.from_rows(
            announcements[0], computed.topology_version, topology.num_nodes,
            [(1, 0, [(1,)])])
        assert sorts == []
        for table in (computed, loaded):
            got = {
                node_id: (table.next_hops_at(node_id),
                          table.catchment_of(node_id))
                for node_id in table.best
            }
            assert got == expected
            missing = max(expected) + 1
            assert table.choice_at(missing) is None
            assert missing not in table.best
        assert packed.catchment_of(1) == 1
        assert len(sorts) == 3


class TestTableLifetime:
    def test_dropped_table_is_freed_without_the_cyclic_collector(
            self, presets):
        """A table and its ``best`` view form no reference cycle, so the
        last reference going frees the table at once."""
        topology, announcements = presets("small")
        gc.collect()
        gc.disable()
        try:
            table = RoutingEngine(topology).compute(announcements[0])
            assert len(table.best) > 0
            alive = weakref.ref(table)
            del table
            assert alive() is None
        finally:
            gc.enable()


class TestFlatEdgeCases:
    def test_equal_best_overflow_capped_like_oracle(self):
        """>16 equal candidates at one node: the oracle's best 16."""
        net = Net()
        sink = net.node(1, tier=Tier.STUB)
        origins = []
        for nid in range(2, 22):  # 20 single-hop providers of the sink
            net.node(nid)
            net.transit(sink, nid)
            origins.append(nid)
        announcement = Announcement(
            prefix=PREFIX,
            origins=tuple(OriginSpec(site_node=o) for o in origins),
        )
        table = RoutingEngine(net.topo).compute_uncached(announcement)
        assert_matches_oracle(net.topo, announcement, table)
        choice = table.choice_at(sink)
        assert choice is not None and len(choice.routes) == 16
        # Every exit is in FRA: the tie falls to the lowest neighbor ids.
        assert choice.next_hops() == tuple(range(2, 18))

    def test_unreachable_node_absent_from_flat_store(self):
        """Export restriction leaves a node unreachable."""
        net = Net()
        origin = net.node(1, tier=Tier.STUB)
        reached = net.node(2)
        starved = net.node(3)
        net.transit(origin, reached)
        net.transit(origin, starved)
        # The origin announces toward provider 2 only; provider 3's sole
        # path to the prefix is the direct link the restriction blocks.
        announcement = Announcement(
            prefix=PREFIX,
            origins=(OriginSpec(site_node=origin, neighbors=(reached,)),),
        )
        table = RoutingEngine(net.topo).compute_uncached(announcement)
        assert_matches_oracle(net.topo, announcement, table)
        assert table.choice_at(starved) is None
        assert table.catchment_of(starved) is None
        assert table.reachable_fraction() == pytest.approx(2.0 / 3.0)

    def test_unreachable_nodes_survive_codec_roundtrip(self):
        net = Net()
        origin = net.node(1, tier=Tier.STUB)
        hub = net.node(2)
        stranded = net.node(3, tier=Tier.STUB)
        net.transit(origin, hub)
        # `stranded` has no links at all: absent from every table.
        announcement = Announcement(
            prefix=PREFIX, origins=(OriginSpec(site_node=origin),)
        )
        table = RoutingEngine(net.topo).compute_uncached(announcement)
        assert stranded not in fixpoint_routes(net.topo, announcement)
        assert table.choice_at(stranded) is None
        assert table.reachable_fraction() == pytest.approx(2.0 / 3.0)
        blob = encode_table(table)
        decoded = decode_table(blob, announcement, table.topology_version)
        assert isinstance(decoded, RoutingTable)
        assert_matches_oracle(net.topo, announcement, decoded)
        assert decoded.reachable_fraction() == table.reachable_fraction()
        assert encode_table(decoded) == blob
