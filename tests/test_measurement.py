"""Tests for probes, the measurement engine, and probe grouping."""

import pytest

from repro.anycast.network import AnycastNetwork
from repro.geo.areas import Area
from repro.measurement.engine import MeasurementEngine, ServiceRegistry
from repro.measurement.grouping import ProbeGroup, group_probes
from repro.measurement.probes import ProbeParams, ProbePopulation


@pytest.fixture(scope="module")
def probes(tiny_topology):
    return ProbePopulation(tiny_topology, ProbeParams(seed=3, num_probes=400))


@pytest.fixture(scope="module")
def engine_setup(tiny_topology):
    net = AnycastNetwork("meas", asn=64600, topology=tiny_topology, seed=8)
    for iata in ("AMS", "JFK", "SIN"):
        net.add_site(iata)
    prefix = net.allocate_service_prefix()
    ann = net.announcement(prefix, net.site_names())
    registry = ServiceRegistry()
    registry.register(ann)
    engine = MeasurementEngine(tiny_topology, registry, seed=4)
    return engine, net.service_address(prefix), net


class TestProbePopulation:
    def test_population_size(self, probes):
        assert len(probes) == 400

    def test_usable_filter_drops_bad_probes(self, probes):
        usable = probes.usable_probes()
        assert 0 < len(usable) < 400
        assert all(p.stable and p.geocode_reliable for p in usable)

    def test_unreliable_geocodes_are_far_off(self, probes):
        for p in probes:
            if not p.geocode_reliable:
                assert p.location.distance_km(p.reported_location) > 300
            else:
                assert p.reported_location == p.location

    def test_probe_addresses_unique_and_resolvable(self, probes):
        addrs = [p.addr for p in probes]
        assert len(set(addrs)) == len(addrs)
        for p in list(probes)[:20]:
            assert probes.probe_by_addr(p.addr) is p

    def test_probe_in_host_prefix_of_its_as(self, probes):
        for p in list(probes)[:50]:
            prefix = probes.host_prefix_of(p.as_node)
            assert prefix is not None and p.addr in prefix

    def test_client_subnet_is_slash24(self, probes):
        p = probes.all_probes()[0]
        assert p.client_subnet.length == 24
        assert p.addr in p.client_subnet

    def test_city_code_same_country(self, probes, tiny_topology):
        atlas = tiny_topology.atlas
        for p in list(probes)[:50]:
            if atlas.in_country(p.country):
                assert atlas.get(p.city_code).country == p.country

    def test_area_weights_respected(self, probes):
        emea = len(probes.in_area(Area.EMEA))
        latam = len(probes.in_area(Area.LATAM))
        assert emea > latam * 5

    def test_determinism(self):
        """Same topology params + same probe seed ⇒ identical population.

        (Two populations on one shared topology would draw different host
        prefixes from the shared allocator, so fresh topologies are used.)
        """
        from repro.topology.builder import InternetBuilder
        from tests.conftest import TINY_PARAMS

        a = ProbePopulation(InternetBuilder(TINY_PARAMS).build(),
                            ProbeParams(seed=77, num_probes=50))
        b = ProbePopulation(InternetBuilder(TINY_PARAMS).build(),
                            ProbeParams(seed=77, num_probes=50))
        assert [p.addr for p in a] == [p.addr for p in b]
        assert [p.location for p in a] == [p.location for p in b]
        assert [p.stable for p in a] == [p.stable for p in b]

    def test_resolver_addr_reserved_outside_probe_block(self, probes):
        p = probes.all_probes()[0]
        resolver = probes.reserve_resolver_addr(p.as_node)
        assert resolver != p.addr
        assert resolver in probes.host_prefix_of(p.as_node)


class TestMeasurementEngine:
    def test_ping_reachable_and_deterministic(self, engine_setup, probes):
        engine, addr, _ = engine_setup
        p = probes.usable_probes()[0]
        r1 = engine.ping(p, addr)
        r2 = engine.ping(p, addr)
        assert r1.reachable
        assert r1.rtt_ms == r2.rtt_ms
        assert r1.catchment == r2.catchment

    def test_ping_salt_changes_jitter_not_catchment(self, engine_setup, probes):
        engine, addr, _ = engine_setup
        p = probes.usable_probes()[0]
        base = engine.ping(p, addr)
        salted = engine.ping(p, addr, salt="other-hostname")
        assert base.catchment == salted.catchment
        assert base.rtt_ms != salted.rtt_ms
        # Jitter is bounded at ±4% by default.
        assert abs(base.rtt_ms - salted.rtt_ms) / base.rtt_ms < 0.09

    def test_ping_unknown_address_unreachable(self, engine_setup, probes):
        from repro.netaddr.ipv4 import IPv4Address

        engine, _, _ = engine_setup
        p = probes.usable_probes()[0]
        result = engine.ping(p, IPv4Address.parse("203.0.113.1"))
        assert not result.reachable
        assert result.catchment is None

    def test_traceroute_ends_at_target(self, engine_setup, probes):
        engine, addr, _ = engine_setup
        p = probes.usable_probes()[0]
        trace = engine.traceroute(p, addr)
        assert trace.reached
        assert trace.hops[-1].addr == addr
        assert trace.hops[-1].ttl == len(trace.hops)

    def test_traceroute_rtts_monotonic_over_responding_hops(self, engine_setup, probes):
        engine, addr, _ = engine_setup
        for p in probes.usable_probes()[:25]:
            trace = engine.traceroute(p, addr)
            rtts = [h.rtt_ms for h in trace.hops if h.rtt_ms is not None]
            assert rtts == sorted(rtts)

    def test_traceroute_consistent_with_ping_catchment(self, engine_setup, probes):
        engine, addr, _ = engine_setup
        for p in probes.usable_probes()[:25]:
            ping = engine.ping(p, addr)
            trace = engine.traceroute(p, addr)
            assert trace.path.origin == ping.catchment

    def test_ping_rtt_at_least_speed_of_light(self, engine_setup, probes):
        engine, addr, net = engine_setup
        site_cities = [net.site(n).city for n in net.site_names()]
        for p in probes.usable_probes()[:50]:
            result = engine.ping(p, addr)
            best_km = min(
                p.location.distance_km(c.location) for c in site_cities
            )
            # RTT can never beat the fiber bound to the nearest site
            # (minus jitter tolerance).
            assert result.rtt_ms >= (best_km / 100.0) * 0.9


class TestGrouping:
    def test_groups_cover_only_usable_probes(self, probes):
        groups = group_probes(probes.all_probes())
        grouped = sum(len(g.probes) for g in groups)
        assert grouped == len(probes.usable_probes())

    def test_group_keys_unique_and_sorted(self, probes):
        groups = group_probes(probes.all_probes())
        keys = [g.key for g in groups]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_group_members_share_city_and_as(self, probes):
        for g in group_probes(probes.all_probes()):
            assert {p.city_code for p in g.probes} == {g.city_code}
            assert {p.as_node for p in g.probes} == {g.as_node}

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            ProbeGroup(city_code="FRA", as_node=1, probes=())

    def test_median_skips_missing_probes(self, probes):
        groups = group_probes(probes.all_probes())
        g = max(groups, key=lambda g: len(g.probes))
        values = {p.probe_id: 10.0 for p in g.probes[:1]}
        assert g.median(values) == 10.0
        assert g.median({}) is None

    def test_median_is_statistical_median(self, probes):
        groups = group_probes(probes.all_probes())
        g = max(groups, key=lambda g: len(g.probes))
        values = {p.probe_id: float(i) for i, p in enumerate(g.probes)}
        import statistics

        assert g.median(values) == statistics.median(values.values())

    def test_majority_picks_most_common(self, probes):
        groups = group_probes(probes.all_probes())
        g = max(groups, key=lambda g: len(g.probes))
        if len(g.probes) >= 3:
            values = {p.probe_id: "a" for p in g.probes}
            values[g.probes[0].probe_id] = "b"
            assert g.majority(values) == "a"
        assert g.majority({}) is None
