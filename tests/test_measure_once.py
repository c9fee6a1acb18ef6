"""The measurement engine walks each probe's path once per routing table.

A probe's landing depends only on the target's routing table and on the
probe's AS, location and last mile; campaign seeds and hostname salts
change only the jitter.  These tests pin that the forwarding memo is
invisible in the results — every RTT equals a fresh engine's bit for
bit — and that it is dropped whenever the registry or the topology
changes.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import obs
from repro.anycast.network import AnycastNetwork
from repro.experiments import longitudinal, table6
from repro.experiments.config import SMALL
from repro.experiments.world import World
from repro.explain import provenance
from repro.measurement.engine import MeasurementEngine, ServiceRegistry
from repro.measurement.probes import ProbeParams, ProbePopulation
from repro.netaddr.ipv4 import IPv4Address, IPv4Prefix
from repro.topology.asys import Interconnect, Link, LinkKind
from repro.topology.builder import InternetBuilder
from tests.conftest import TINY_PARAMS

SEED = 4

#: sha256 of ``table6.run(World(SMALL)).render()`` when table6 read
#: every ping from ``World.ping_all``'s per-address cache.
TABLE6_RENDER_DIGEST = (
    "21439ca12cffdf7bd446903392931d09e04ca66c28d46b8d2876c668a875078f"
)


class Setup:
    """A private tiny Internet with a three-site anycast prefix."""

    def __init__(self) -> None:
        self.topology = InternetBuilder(TINY_PARAMS).build()
        self.net = AnycastNetwork("memo", asn=64700, topology=self.topology,
                                  seed=8)
        for iata in ("AMS", "JFK", "SIN"):
            self.net.add_site(iata)
        self.prefix = self.net.allocate_service_prefix()
        self.registry = ServiceRegistry()
        self.registry.register(
            self.net.announcement(self.prefix, self.net.site_names())
        )
        self.addr = self.net.service_address(self.prefix)
        population = ProbePopulation(
            self.topology, ProbeParams(seed=3, num_probes=300)
        )
        self.probes = population.usable_probes()

    def engine(self, seed: int = SEED) -> MeasurementEngine:
        return MeasurementEngine(self.topology, self.registry, seed=seed)


@pytest.fixture
def setup() -> Setup:
    return Setup()


def _ping_line(ping) -> str:
    return f"{ping.probe_id}|{ping.target}|{ping.rtt_ms!r}|{ping.catchment}"


def _trace_line(trace) -> str:
    origin = trace.path.origin if trace.path is not None else None
    hops = ";".join(f"{hop.addr}@{hop.rtt_ms!r}" for hop in trace.hops)
    return f"{trace.probe_id}|{trace.target}|{trace.reached}|{origin}|{hops}"


def _pings(engine, probes, addr, salt=None) -> list[str]:
    return [_ping_line(engine.ping(p, addr, salt=salt)) for p in probes]


def _traces(engine, probes, addr) -> list[str]:
    return [_trace_line(engine.traceroute(p, addr)) for p in probes]


def _walks(recorder) -> float:
    return recorder.root.subtree_counters().get("forwarding.walks", 0.0)


class TestBitIdentity:
    def test_repeats_equal_a_fresh_engine_and_walk_nothing(self, setup):
        engine = setup.engine()
        probes, addr = setup.probes, setup.addr
        first_pings = _pings(engine, probes, addr)
        first_traces = _traces(engine, probes, addr)
        with obs.recording("repeat") as recorder:
            assert _pings(engine, probes, addr) == first_pings
            salted = _pings(engine, probes, addr, salt="extra-00")
            resalted = _pings(engine, probes, addr, salt="extra-01")
            assert _traces(engine, probes, addr) == first_traces
        assert _walks(recorder) == 0

        assert first_pings == _pings(setup.engine(), probes, addr)
        assert first_traces == _traces(setup.engine(), probes, addr)
        assert salted == _pings(setup.engine(), probes, addr, salt="extra-00")
        assert resalted == _pings(setup.engine(), probes, addr,
                                  salt="extra-01")
        assert salted != first_pings

    def test_ping_after_traceroute_reuses_the_path(self, setup):
        engine = setup.engine()
        probes, addr = setup.probes, setup.addr
        traces = _traces(engine, probes, addr)
        with obs.recording("ping") as recorder:
            pings = _pings(engine, probes, addr)
        assert _walks(recorder) == 0
        fresh = setup.engine()
        assert pings == _pings(fresh, probes, addr)
        assert traces == _traces(fresh, probes, addr)

    def test_memo_counts_one_entry_per_walk_key(self, setup):
        engine = setup.engine()
        _pings(engine, setup.probes, setup.addr)
        keys = {(p.as_node, p.location, p.last_mile_ms) for p in setup.probes}
        assert engine.memo.entries() == len(keys)
        _traces(engine, setup.probes, setup.addr)
        _pings(engine, setup.probes, setup.addr, salt="again")
        assert engine.memo.entries() == len(keys)


class TestInvalidation:
    def test_more_specific_prefix_re_resolves_the_address(self, setup):
        engine = setup.engine()
        # An address in the /24's upper half, which a /25 can shadow
        # without clashing with the /24's own service address.
        upper = IPv4Prefix(setup.prefix.network + 128, 25)
        addr = IPv4Address(upper.network + 1)
        coarse = engine.table_for(addr)
        before = _pings(engine, setup.probes, addr)

        sin = setup.net.site("SIN").node_id
        setup.registry.register(setup.net.announcement(upper, ["SIN"]))
        assert engine.table_for(addr) is not coarse
        assert engine.table_for(addr).prefix == upper
        after = _pings(engine, setup.probes, addr)
        assert after != before
        assert {engine.ping(p, addr).catchment for p in setup.probes} == {sin}
        assert after == _pings(setup.engine(), setup.probes, addr)

    def test_add_link_between_pings_matches_a_fresh_engine(self, setup):
        engine = setup.engine()
        probes, addr = setup.probes, setup.addr
        before = {p.probe_id: engine.ping(p, addr) for p in probes}
        _traces(engine, probes, addr)
        sin = setup.net.site("SIN")
        probe = next(p for p in probes if before[p.probe_id].catchment
                     != sin.node_id)
        # A private peering from the probe's AS straight to the SIN site:
        # the peer route beats every provider route, so it moves.
        setup.topology.add_link(Link(
            a=probe.as_node, b=sin.node_id, kind=LinkKind.PEER_PRIVATE,
            interconnects=(Interconnect(
                city=sin.city,
                addr_a=IPv4Address.parse("192.0.2.1"),
                addr_b=IPv4Address.parse("192.0.2.2"),
                extra_ms=0.5,
            ),),
        ))
        assert engine.ping(probe, addr).catchment == sin.node_id
        fresh = setup.engine()
        assert _pings(engine, probes, addr) == _pings(fresh, probes, addr)
        assert _traces(engine, probes, addr) == _traces(fresh, probes, addr)

    def test_unregistered_address_stays_unreachable(self, setup):
        engine = setup.engine()
        addr = IPv4Address.parse("203.0.113.1")
        probe = setup.probes[0]
        assert not engine.ping(probe, addr).reachable
        assert not engine.traceroute(probe, addr).reached
        assert engine.table_for(addr) is None


class TestProvenance:
    def test_memoized_path_still_records_a_trail(self, setup):
        engine = setup.engine()
        probe, addr = setup.probes[0], setup.addr
        engine.ping(probe, addr)
        engine.traceroute(probe, addr)
        key = (str(setup.prefix), probe.as_node)
        with provenance.capturing() as recorder:
            engine.ping(probe, addr)
        assert key in recorder.forwarding
        with provenance.capturing() as recorder:
            engine.traceroute(probe, addr)
        assert key in recorder.forwarding


class TestCampaign:
    def test_campaign_shares_routing_and_landings(self, setup):
        engine = setup.engine()
        campaign = engine.campaign(SEED + 1000)
        assert campaign.routing is engine.routing
        assert campaign.registry is engine.registry
        assert campaign.memo is engine.memo
        probes, addr = setup.probes, setup.addr
        for probe in probes:
            ours = engine.ping(probe, addr)
            theirs = campaign.ping(probe, addr)
            assert theirs.catchment == ours.catchment
            ours_trace = engine.traceroute(probe, addr)
            theirs_trace = campaign.traceroute(probe, addr)
            assert theirs_trace.path is ours_trace.path
            assert ([h.addr for h in theirs_trace.hops]
                    == [h.addr for h in ours_trace.hops])
        assert _pings(campaign, probes, addr) != _pings(engine, probes, addr)

        fresh = setup.engine(seed=SEED + 1000)
        assert _pings(campaign, probes, addr) == _pings(fresh, probes, addr)
        assert _traces(campaign, probes, addr) == _traces(fresh, probes, addr)


class TestExperiments:
    def test_longitudinal_computes_no_routing_table(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "1")
        world = World(SMALL)
        with obs.recording("longitudinal") as recorder:
            result = longitudinal.run(world)
        assert recorder.root.find_all("routing.compute") == []
        assert result.all_stable

    def test_table6_render_unchanged(self, small_world):
        render = table6.run(small_world).render()
        assert hashlib.sha256(render.encode()).hexdigest() == (
            TABLE6_RENDER_DIGEST
        )


class TestWorkers:
    def test_new_prefix_measured_in_process(self, monkeypatch):
        """Workers compute routing only: a prefix registered after the
        build is computed once and pinged in this process, with no
        ``par.*`` span anywhere in the recording."""
        monkeypatch.setenv("REPRO_WORKERS", "2")
        world = World(SMALL)
        network = world.tangled.network
        announcement = network.announcement(
            network.allocate_service_prefix(), world.tangled.site_names[:3]
        )
        world.registry.register(announcement)
        _, misses = world.engine.routing.cache_stats()
        with obs.recording("workers") as recorder:
            pings = world.ping_all(announcement.prefix.address(1))
        assert len(recorder.root.find_all("routing.compute")) == 1
        assert world.engine.routing.cache_stats()[1] == misses + 1
        assert any(ping.reachable for ping in pings.values())
        assert not [
            record.name for _, record in recorder.root.walk()
            if record.name.startswith("par.")
        ]
