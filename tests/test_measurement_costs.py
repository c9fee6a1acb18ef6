"""What the cheap measurement paths rely on.

- **Records.**  ``PingResult``, ``TracerouteHop``, ``TracerouteResult``,
  ``Hop`` and ``ForwardingPath`` are dataclasses with hand-declared
  ``__slots__`` and ``unsafe_hash=True``.  Their ``repr``, equality,
  hash, field names, pickling and JSON export must be what the frozen
  dataclasses they replaced gave; the literals below were taken from
  those.
- **The collector.**  ``ping_many`` and ``traceroute_many`` run with the
  cyclic collector paused.  That is sound only if a batch leaves no
  reference cycle behind, which ``gc.collect() == 0`` after each batch
  checks, and only if every batch gives the caller's setting back.
- **Geolocation answers.**  A ``GeoDatabase`` keeps one answer per
  address and per subnet.  Its answers must equal a fresh database's,
  and a topology change must empty the memo.
- **Exits from an interconnect city.**  ``FlatAdjacency.hot_potato_exit``
  reads both distances off the atlas's city-pair table when the packet
  sits at a city; the exit must be the one a direct computation picks,
  with the same floats.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import pickle

import pytest

from repro.dnssim.resolver import DnsMode
from repro.experiments.export import to_jsonable
from repro.geo import coords
from repro.geo.atlas import city_km, load_default_atlas
from repro.geoloc.database import GeoDatabase, GeoDbParams
from repro.geoloc.oracle import GeoOracle
from repro.measurement import engine as engine_module
from repro.measurement.engine import (
    MeasurementEngine,
    PingResult,
    TracerouteHop,
    TracerouteResult,
)
from repro.measurement.probes import ProbeParams, ProbePopulation
from repro.netaddr.ipv4 import IPv4Address
from repro.routing.forwarding import ForwardingPath, Hop
from repro.topology.asys import Interconnect, Link, LinkKind
from repro.topology.builder import InternetBuilder
from repro.topology.flat import FlatAdjacency
from tests.conftest import TINY_PARAMS

ATLAS = load_default_atlas()


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------
def _records() -> dict[str, object]:
    router = IPv4Address.parse("198.51.100.7")
    target = IPv4Address.parse("192.0.2.1")
    hop = Hop(addr=router, node_id=5, city=ATLAS.get("FRA"), ixp_id=None,
              rtt_ms=3.25)
    path = ForwardingPath(node_path=(11, 5, 42), origin=42, hops=(hop,),
                          rtt_ms=7.5, distance_km=365.125,
                          dest_city=ATLAS.get("AMS"))
    trace_hop = TracerouteHop(ttl=1, addr=router, rtt_ms=3.375)
    silent = TracerouteHop(ttl=2, addr=None, rtt_ms=None)
    return {
        "PingResult": PingResult(probe_id=9, target=target, rtt_ms=7.75,
                                 catchment=42),
        "TracerouteHop": trace_hop,
        "TracerouteResult": TracerouteResult(
            probe_id=9, target=target, hops=(trace_hop, silent),
            reached=True, path=path,
        ),
        "Hop": hop,
        "ForwardingPath": path,
    }


_FRA = ("City(iata='FRA', name='Frankfurt', country='DE', "
        "location=GeoPoint(lat=50.11, lon=8.68))")
_AMS = ("City(iata='AMS', name='Amsterdam', country='NL', "
        "location=GeoPoint(lat=52.37, lon=4.9))")
_HOP = (f"Hop(addr=IPv4Address(value=3325256711), node_id=5, city={_FRA}, "
        "ixp_id=None, rtt_ms=3.25)")
_PATH = (f"ForwardingPath(node_path=(11, 5, 42), origin=42, hops=({_HOP},), "
         f"rtt_ms=7.5, distance_km=365.125, dest_city={_AMS})")
_TRACE_HOP = "TracerouteHop(ttl=1, addr=IPv4Address(value=3325256711), rtt_ms=3.375)"

#: ``repr`` of each record of ``_records()`` under the frozen dataclasses.
REPRS = {
    "PingResult": ("PingResult(probe_id=9, target=IPv4Address(value=3221225985), "
                   "rtt_ms=7.75, catchment=42)"),
    "TracerouteHop": _TRACE_HOP,
    "TracerouteResult": (
        "TracerouteResult(probe_id=9, target=IPv4Address(value=3221225985), "
        f"hops=({_TRACE_HOP}, TracerouteHop(ttl=2, addr=None, rtt_ms=None)), "
        f"reached=True, path={_PATH})"
    ),
    "Hop": _HOP,
    "ForwardingPath": _PATH,
}

FIELDS = {
    "PingResult": ("probe_id", "target", "rtt_ms", "catchment"),
    "TracerouteHop": ("ttl", "addr", "rtt_ms"),
    "TracerouteResult": ("probe_id", "target", "hops", "reached", "path"),
    "Hop": ("addr", "node_id", "city", "ixp_id", "rtt_ms"),
    "ForwardingPath": ("node_path", "origin", "hops", "rtt_ms", "distance_km",
                       "dest_city"),
}

_HOP_JSON = ('{"addr": "198.51.100.7", "city": "FRA", "ixp_id": null, '
             '"node_id": 5, "rtt_ms": 3.25}')
_PATH_JSON = (f'{{"dest_city": "AMS", "distance_km": 365.125, "hops": '
              f'[{_HOP_JSON}], "node_path": [11, 5, 42], "origin": 42, '
              f'"rtt_ms": 7.5}}')
_TRACE_HOP_JSON = '{"addr": "198.51.100.7", "rtt_ms": 3.375, "ttl": 1}'

#: ``json.dumps(to_jsonable(record), sort_keys=True)`` under the frozen
#: dataclasses.
JSON = {
    "PingResult": ('{"catchment": 42, "probe_id": 9, "rtt_ms": 7.75, '
                   '"target": "192.0.2.1"}'),
    "TracerouteHop": _TRACE_HOP_JSON,
    "TracerouteResult": (
        f'{{"hops": [{_TRACE_HOP_JSON}, {{"addr": null, "rtt_ms": null, '
        f'"ttl": 2}}], "path": {_PATH_JSON}, "probe_id": 9, '
        f'"reached": true, "target": "192.0.2.1"}}'
    ),
    "Hop": _HOP_JSON,
    "ForwardingPath": _PATH_JSON,
}


@pytest.mark.parametrize("name", sorted(REPRS))
class TestRecords:
    def test_slots_and_no_instance_dict(self, name):
        record = _records()[name]
        assert type(record).__slots__ == FIELDS[name]
        assert not hasattr(record, "__dict__")

    def test_repr_fields_and_json_as_before(self, name):
        record = _records()[name]
        assert repr(record) == REPRS[name]
        assert tuple(f.name for f in dataclasses.fields(record)) == FIELDS[name]
        assert json.dumps(to_jsonable(record), sort_keys=True) == JSON[name]

    def test_equality_and_hash_as_before(self, name):
        record, twin = _records()[name], _records()[name]
        assert record == twin and record is not twin
        # A frozen dataclass hashed the tuple of its fields.
        values = tuple(getattr(record, f) for f in FIELDS[name])
        assert hash(record) == hash(twin) == hash(values)
        changed = dataclasses.replace(record, **{FIELDS[name][0]: 0})
        assert changed != record

    def test_pickle_round_trip(self, name):
        record = _records()[name]
        clone = pickle.loads(pickle.dumps(record))
        assert clone == record and repr(clone) == repr(record)


# ----------------------------------------------------------------------
# The collector
# ----------------------------------------------------------------------
@pytest.fixture
def collector_off():
    """The cyclic collector disabled; the caller's setting is restored
    afterwards."""
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


@pytest.mark.parametrize("batch", ["ping_many", "traceroute_many"])
class TestCollectorSetting:
    @pytest.mark.parametrize("enabled", [True, False],
                             ids=["enabled", "disabled"])
    def test_batch_leaves_the_setting_as_found(self, fresh_small, batch,
                                               enabled):
        world = fresh_small
        addr = world.edgio.eg3.regional_addresses()[0]
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            getattr(world.engine, batch)(world.usable_probes[:20], addr)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_batch_that_raises_restores_the_collector(self, fresh_small,
                                                      monkeypatch, batch):
        world = fresh_small
        engine = MeasurementEngine(world.topology, world.registry, seed=77)

        def broken(*args, **kwargs):
            assert not gc.isenabled(), "the batch runs with the collector on"
            raise RuntimeError("walk failed")

        monkeypatch.setattr(engine_module, "walk", broken)
        monkeypatch.setattr(engine_module, "trace_forwarding_path", broken)
        addr = world.edgio.eg3.regional_addresses()[0]
        assert gc.isenabled()
        with pytest.raises(RuntimeError, match="walk failed"):
            getattr(engine, batch)(world.usable_probes[:5], addr)
        assert gc.isenabled()


class TestBatchesLeaveNoCycles:
    def test_every_batch_kind_to_every_address(self, fresh_small,
                                               collector_off):
        world = fresh_small
        probes = world.usable_probes
        campaign = world.engine.campaign(1234)
        addrs = [announcement.prefix.address(1)
                 for announcement in world.registry.announcements()]
        batches = (
            ("traceroute", world.engine.traceroute_many, ()),
            ("ping", world.engine.ping_many, ()),
            ("salted ping", world.engine.ping_many, ("Edgio-3-extra-00",)),
            ("campaign ping", campaign.ping_many, ()),
        )
        for kind, batch, salt in batches:
            gc.collect()
            for addr in addrs:
                assert batch(probes, addr, *salt), f"{kind} to {addr} measured nothing"
            assert gc.collect() == 0, f"a {kind} batch left a cycle"

    def test_batch_with_a_fresh_routing_compute(self, fresh_small,
                                                collector_off):
        world = fresh_small
        engine = MeasurementEngine(world.topology, world.registry, seed=5)
        addr = world.imperva.im6.regional_addresses()[0]
        assert engine.routing.cache_stats() == (0, 0)
        gc.collect()
        assert engine.traceroute_many(world.usable_probes, addr)
        assert engine.routing.cache_stats()[1] == 1, "no table was computed"
        assert gc.collect() == 0


# ----------------------------------------------------------------------
# Geolocation answers
# ----------------------------------------------------------------------
def _fresh(db: GeoDatabase, oracle: GeoOracle) -> GeoDatabase:
    return GeoDatabase(db.name, oracle, db.params, seed=db._seed)


def test_memoized_answers_equal_a_fresh_database(fresh_small):
    world = fresh_small
    probes = world.usable_probes
    addrs = [p.addr for p in probes]
    addrs += [world.resolvers.profile_for(p).addr for p in probes]
    target = world.edgio.eg3.regional_addresses()[0]
    traces = world.engine.traceroute_many(probes, target).values()
    phops = [t.penultimate_hop.addr for t in traces
             if t.penultimate_hop is not None]
    assert phops
    addrs += phops
    subnets = [p.client_subnet for p in probes]
    # The campaign's own questions first, so the memo is warm.
    world.resolve_all(world.eg3_service, DnsMode.LDNS)
    world.resolve_all(world.eg3_service, DnsMode.ADNS)
    databases = [*world.databases, world.edgio_db, world.imperva_db,
                 world.route53_db]
    assert len({db.name for db in databases}) == 6
    for db in databases:
        fresh = _fresh(db, world.oracle)
        for _ in range(2):
            assert [db.lookup(a) for a in addrs] == \
                [fresh.lookup(a) for a in addrs], db.name
            assert [db.lookup_subnet(s) for s in subnets] == \
                [fresh.lookup_subnet(s) for s in subnets], db.name


def test_add_link_empties_the_memo():
    topology = InternetBuilder(TINY_PARAMS).build()
    probes = ProbePopulation(topology, ProbeParams(seed=3, num_probes=60))
    oracle = GeoOracle(topology, probes)
    asked: list[IPv4Address] = []
    attribute = oracle.attribute

    def counting(addr):
        asked.append(addr)
        return attribute(addr)

    oracle.attribute = counting  # type: ignore[method-assign]
    db = GeoDatabase("memo", oracle, GeoDbParams(), seed=4)
    probe = probes.usable_probes()[0]
    new_interface = IPv4Address.parse("192.0.2.1")
    first = db.lookup(probe.addr)
    assert db.lookup(new_interface) is None
    assert db.lookup(probe.addr) == first
    assert asked == [probe.addr, new_interface]
    city = topology.node(probe.as_node).pops[0].city
    other = next(n.node_id for n in topology.nodes()
                 if n.node_id != probe.as_node
                 and not topology.has_link(probe.as_node, n.node_id))
    topology.add_link(Link(
        a=probe.as_node, b=other, kind=LinkKind.PEER_PRIVATE,
        interconnects=(Interconnect(
            city=city, addr_a=new_interface,
            addr_b=IPv4Address.parse("192.0.2.2"), extra_ms=0.5,
        ),),
    ))
    record = db.lookup(new_interface)
    assert asked[-1] == new_interface
    assert record is not None and record == _fresh(db, oracle).lookup(new_interface)
    assert len(db._answers) == 1, "answers of the old topology survived"
    assert db.lookup(probe.addr) == first
    assert asked[-1] == probe.addr


# ----------------------------------------------------------------------
# Exits from an interconnect city
# ----------------------------------------------------------------------
def test_exit_from_a_city_reads_the_table_and_matches_the_direct_one(
        fresh_small, monkeypatch):
    topology = fresh_small.topology
    far = [ATLAS.get(iata) for iata in ("FRA", "GRU", "JNB", "SIN", "SYD")]
    questions = [
        (a, b, city)
        for link in topology.links()
        for a, b in ((link.a, link.b), (link.b, link.a))
        for city in (*(ic.city for ic in link.interconnects), *far)
    ]
    direct = FlatAdjacency(topology)
    expected = [direct.hot_potato_exit(a, b, city.location)
                for a, b, city in questions]
    cities = {city.iata: city for _, _, city in questions}.values()
    for one in cities:  # fill every row the exits read
        for other in cities:
            city_km(one, other)

    def haversine(*args, **kwargs):
        raise AssertionError("an exit from a city measured a distance")

    monkeypatch.setattr(coords, "great_circle_km", haversine)
    from_city = FlatAdjacency(topology)
    got = [from_city.hot_potato_exit(a, b, city.location, city)
           for a, b, city in questions]
    assert got == expected
