"""Batch measurements against references kept in this file.

``MeasurementEngine.ping_many`` and ``traceroute_many`` do the
per-target work once per batch and hash the jitter input from a
prefix and a suffix around the probe id; the forwarding walk memoizes
next hops per table and takes a node's only exit without comparing.
These tests check both against the plain per-probe forms they
replaced: a loop that walks every probe afresh and hashes
``"|".join(str(p) for p in (seed, "jitter", probe_id, addr, salt))``,
and a hop-by-hop walk that compares every exit of every node.
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import fields, is_dataclass

import pytest

from repro.explain import provenance
from repro.geo.coords import FIBER_KM_PER_MS_RTT
from repro.measurement.engine import (
    MeasurementEngine,
    PingResult,
    TracerouteHop,
    TracerouteResult,
)
from repro.netaddr.ipv4 import IPv4Address
from repro.routing.engine import RoutingEngine
from repro.routing.forwarding import (
    Hop,
    site_city,
    trace_forwarding_path,
    walk,
)
from repro.routing.route import PrefTier
from repro.topology.flat import FlatAdjacency
from tests.test_routing_properties import random_world

SEED = 17
JITTER = 0.04
SILENT = 0.02
SILENCE_SEED = 0
SALTS = (None, "Edgio-3-extra-00")


# ----------------------------------------------------------------------
# (a) Batches against a per-probe reference
# ----------------------------------------------------------------------
def _hash01(*parts: object) -> float:
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


def _scale(probe_id: int, addr: IPv4Address, salt: object) -> float:
    u = _hash01(SEED, "jitter", probe_id, addr, salt)
    return 1.0 + (2.0 * u - 1.0) * JITTER


def _reference_path(world, probe, addr):
    table = world.engine.table_for(addr)
    if table is None:
        return None
    return trace_forwarding_path(world.topology, table, probe.as_node,
                                 probe.location,
                                 last_mile_ms=probe.last_mile_ms)


def _reference_ping(world, probe, addr, salt) -> PingResult:
    path = _reference_path(world, probe, addr)
    if path is None:
        return PingResult(probe_id=probe.probe_id, target=addr, rtt_ms=None,
                          catchment=None)
    return PingResult(
        probe_id=probe.probe_id, target=addr,
        rtt_ms=path.rtt_ms * _scale(probe.probe_id, addr, salt),
        catchment=path.origin,
    )


def _silent(hop: Hop) -> bool:
    digest = hashlib.sha256(f"silent|{SILENCE_SEED}|{hop.addr}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64) < SILENT


def _reference_trace(world, probe, addr) -> TracerouteResult:
    path = _reference_path(world, probe, addr)
    if path is None:
        return TracerouteResult(probe_id=probe.probe_id, target=addr, hops=(),
                                reached=False, path=None)
    scale = _scale(probe.probe_id, addr, None)
    hops = [
        TracerouteHop(ttl=ttl, addr=None, rtt_ms=None) if _silent(hop)
        else TracerouteHop(ttl=ttl, addr=hop.addr, rtt_ms=hop.rtt_ms * scale)
        for ttl, hop in enumerate(path.hops, start=1)
    ]
    hops.append(TracerouteHop(ttl=len(path.hops) + 1, addr=addr,
                              rtt_ms=path.rtt_ms * scale))
    return TracerouteResult(probe_id=probe.probe_id, target=addr,
                            hops=tuple(hops), reached=True, path=path)


def _bits(value: object) -> object:
    """A value with every float inside it spelled out bit for bit."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return tuple(_bits(v) for v in value)
    if is_dataclass(value):
        return tuple(_bits(getattr(value, f.name)) for f in fields(value))
    return value


def _assert_same(batch: dict, reference: list) -> None:
    assert list(batch) == [r.probe_id for r in reference]
    assert list(batch.values()) == reference
    assert [_bits(r) for r in batch.values()] == [_bits(r) for r in reference]


def _engine(world) -> MeasurementEngine:
    return MeasurementEngine(world.topology, world.registry, seed=SEED,
                             jitter_fraction=JITTER, hop_silent_fraction=SILENT,
                             hop_silence_seed=SILENCE_SEED)


def _targets(world) -> list[IPv4Address]:
    eg3 = world.edgio.eg3
    return [
        world.tangled.global_deployment.address,
        eg3.address_of_region(eg3.region_names[0]),
        IPv4Address.parse("203.0.113.1"),
    ]


@pytest.fixture(scope="module")
def probes(small_world):
    # Every 5th usable probe, reversed: the order is not the world's.
    return small_world.usable_probes[::-5]


class TestBatchesMatchThePerProbeReference:
    @pytest.mark.parametrize("salt", SALTS)
    def test_ping_many(self, small_world, probes, salt):
        engine = _engine(small_world)
        for addr in _targets(small_world):
            reference = [_reference_ping(small_world, p, addr, salt)
                         for p in probes]
            # Cold: every probe walks.  Warm: every probe is a memo hit.
            _assert_same(engine.ping_many(probes, addr, salt), reference)
            _assert_same(engine.ping_many(probes, addr, salt), reference)

    def test_traceroute_many(self, small_world, probes):
        engine = _engine(small_world)
        for addr in _targets(small_world):
            reference = [_reference_trace(small_world, p, addr)
                         for p in probes]
            _assert_same(engine.traceroute_many(probes, addr), reference)
            _assert_same(engine.traceroute_many(probes, addr), reference)

    def test_memo_rules_across_batch_kinds(self, small_world, probes):
        """A traceroute re-walks keys that hold only a ping's landing; a
        ping reads a traceroute's path; neither changes a float."""
        engine = _engine(small_world)
        half = probes[: len(probes) // 2]
        for addr in _targets(small_world):
            for salt in SALTS:
                _assert_same(
                    engine.ping_many(half, addr, salt),
                    [_reference_ping(small_world, p, addr, salt) for p in half],
                )
            _assert_same(
                engine.traceroute_many(probes, addr),
                [_reference_trace(small_world, p, addr) for p in probes],
            )
            for salt in SALTS:
                _assert_same(
                    engine.ping_many(probes, addr, salt),
                    [_reference_ping(small_world, p, addr, salt)
                     for p in probes],
                )

    def test_single_probe_calls_are_batches_of_one(self, small_world, probes):
        engine = _engine(small_world)
        for addr in _targets(small_world):
            for probe in probes[:20]:
                assert engine.ping(probe, addr, "x") == _reference_ping(
                    small_world, probe, addr, "x")
                assert engine.traceroute(probe, addr) == _reference_trace(
                    small_world, probe, addr)

    def test_targets_cover_every_outcome(self, small_world, probes):
        engine = _engine(small_world)
        tangled, eg3, unregistered = (
            engine.ping_many(probes, addr) for addr in _targets(small_world)
        )
        assert all(r.reachable for r in tangled.values())
        assert any(r.reachable for r in eg3.values())
        assert not any(r.reachable for r in unregistered.values())
        catchments = {r.catchment for r in tangled.values()}
        assert len(catchments) > 1


# ----------------------------------------------------------------------
# (b) The walk against a hop-by-hop reference
# ----------------------------------------------------------------------
def _reference_next_hops(table, node):
    """Next hops read off a fresh ``RouteChoice``, not the table memo."""
    choice = table.choice_at(node)
    if choice is None:
        return None
    if choice.tier is PrefTier.ORIGIN:
        return ()
    return choice.next_hops()


#: The reference's own adjacency per topology, apart from the
#: ``flat_adjacency`` memo the walk reads, so the walk never replays an
#: exit the reference computed.  Weak keys: an ``id()`` key could hand a
#: dead world's adjacency to a new world at the same address.
_REFERENCE_ADJACENCIES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _reference_walk(topology, table, start_node, start_point,
                    primary_only, hops, stats):
    """The walk as it compared every exit at every node."""
    next_hops = _reference_next_hops(table, start_node)
    if next_hops is None:
        return None
    adjacency = _REFERENCE_ADJACENCIES.get(topology)
    if adjacency is None:
        adjacency = _REFERENCE_ADJACENCIES[topology] = FlatAdjacency(topology)
    node = start_node
    point = start_point
    total_km = 0.0
    extra_ms = 0.0
    while next_hops:
        exits = [adjacency.hot_potato_exit(node, n, point) for n in next_hops]
        pick = 0
        if not primary_only:
            for i in range(1, len(exits)):
                if (exits[i].km, next_hops[i]) < (exits[pick].km,
                                                  next_hops[pick]):
                    pick = i
        stats["single" if len(next_hops) == 1 else "several"] += 1
        kms = [e.km for e in exits]
        stats["ties"] += len(kms) != len(set(kms))
        exit_ = exits[pick]
        ic = exit_.interconnect
        total_km += exit_.walk_km
        point = ic.city.location
        extra_ms += ic.extra_ms
        node = next_hops[pick]
        hops.append(Hop(addr=exit_.addr, node_id=node, city=ic.city,
                        ixp_id=exit_.ixp_id,
                        rtt_ms=total_km / FIBER_KM_PER_MS_RTT + extra_ms))
        next_hops = _reference_next_hops(table, node)
    total_km += point.distance_km(site_city(topology, node).location)
    return node, total_km / FIBER_KM_PER_MS_RTT + extra_ms, total_km


def test_walk_matches_the_hop_by_hop_reference_on_random_worlds():
    stats = {"single": 0, "several": 0, "ties": 0}
    for seed in range(300):
        topo, announcement = random_world(seed)
        table = RoutingEngine(topo).compute(announcement)
        for node in table.best:
            for pop in topo.node(node).pops:
                point = pop.city.location
                for primary_only in (False, True):
                    expected_hops: list[Hop] = []
                    expected = _reference_walk(topo, table, node, point,
                                               primary_only, expected_hops,
                                               stats)
                    # Twice: the second walk reads the next-hop memo.
                    for _ in range(2):
                        hops: list[Hop] = []
                        got = walk(topo, table, node, point,
                                   primary_only=primary_only, hops=hops)
                        assert got == expected, (seed, node, primary_only)
                        assert hops == expected_hops
                        assert _bits((got, hops)) == _bits(
                            (expected, expected_hops))
    assert stats["single"] > 1000
    assert stats["several"] > 100
    assert stats["ties"] > 0


# ----------------------------------------------------------------------
# (c) Provenance captures still record every walk
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ["ping", "traceroute"])
def test_capture_records_one_trail_per_reachable_probe(small_world, probes,
                                                       kind):
    engine = _engine(small_world)
    addr = small_world.tangled.global_deployment.address
    measure = (engine.ping_many if kind == "ping"
               else engine.traceroute_many)
    measure(probes, addr)  # warm memo: a capture must walk anyway
    with provenance.capturing() as recorder:
        trails = []
        record = recorder.record_forwarding
        recorder.record_forwarding = lambda trail: (trails.append(trail),
                                                    record(trail))
        results = measure(probes, addr)
    reachable = [p for p in probes
                 if getattr(results[p.probe_id],
                            "reachable" if kind == "ping" else "reached")]
    assert reachable
    assert len(trails) == len(reachable)
    assert [t.start_node for t in trails] == [p.as_node for p in reachable]
    prefix = str(engine.table_for(addr).prefix)
    assert {t.prefix for t in trails} == {prefix}
