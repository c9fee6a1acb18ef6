"""Micro-benchmarks of the simulator's hot paths."""

from __future__ import annotations

from repro.measurement.engine import MeasurementEngine
from repro.routing.engine import RoutingEngine
from repro.routing.forwarding import trace_forwarding_path
from repro.tangled.reopt import spherical_kmeans
from repro.topology.builder import InternetBuilder, TopologyParams


def test_bench_topology_build(benchmark):
    params = TopologyParams(seed=5, num_tier1=8, num_transit=120, num_stubs=400)
    topo = benchmark(lambda: InternetBuilder(params).build())
    benchmark.extra_info["nodes"] = topo.num_nodes
    benchmark.extra_info["links"] = topo.num_links


def test_bench_routing_global_anycast(benchmark, world):
    """Full-table BGP computation for a 49-site global anycast prefix."""
    announcement = world.imperva.ns.announcement()

    def compute():
        engine = RoutingEngine(world.topology)  # fresh engine: no caching
        return engine.compute(announcement)

    table = benchmark(compute)
    benchmark.extra_info["routed_nodes"] = len(table.best)
    assert table.reachable_fraction() > 0.95


def test_bench_routing_regional_prefix(benchmark, world):
    ann = world.imperva.im6.announcements()[0]

    def compute():
        return RoutingEngine(world.topology).compute(ann)

    table = benchmark(compute)
    assert len(table.best) > 0


def test_bench_forwarding_walk(benchmark, world):
    """Hot-potato geographic realisation for 200 probes."""
    addr = world.imperva.ns.address
    table = world.engine.table_for(addr)
    probes = world.usable_probes[:200]

    def walk():
        total = 0.0
        for p in probes:
            fp = trace_forwarding_path(world.topology, table, p.as_node,
                                       p.location, p.last_mile_ms)
            total += fp.rtt_ms
        return total

    total = benchmark(walk)
    assert total > 0


def test_bench_ping_batch(benchmark, world):
    """End-to-end pings for 200 probes in one batch, walks included.

    Every round gets a fresh measurement engine whose routing table is
    computed in setup: the timed region walks each probe's path once
    (no forwarding-memo hits) and computes no table.  Since the engine
    measures per target, this times ``ping_many`` (see
    ``docs/performance.md``, "Measure per target").
    """
    addr = world.imperva.im6.address_of_region("EMEA")
    probes = world.usable_probes[:200]

    def fresh_engine():
        engine = MeasurementEngine(
            world.topology, world.registry, seed=world.config.measurement_seed
        )
        engine.table_for(addr)
        return (engine,), {}

    def pings(engine):
        return engine.ping_many(probes, addr)

    results = benchmark.pedantic(pings, setup=fresh_engine, rounds=20)
    assert list(results) == [p.probe_id for p in probes]
    assert all(r.reachable for r in results.values())


def test_bench_sitemap_pipeline(benchmark, world):
    """The Appendix-B geolocation cascade over one prefix's traces."""
    addr = world.imperva.ns.address
    traces = world.trace_all(addr)
    published = world.imperva.ns.published_cities
    mapper = world.site_mapper(published)

    result = benchmark(mapper.map_traces, traces, world.probe_by_id)
    benchmark.extra_info["sites_found"] = len(result.sites)


def test_bench_spherical_kmeans(benchmark, world):
    points = {
        name: world.tangled.site(name).city.location
        for name in world.tangled.site_names
    }
    assignment = benchmark(spherical_kmeans, points, 5)
    assert len(set(assignment.values())) == 5


def test_bench_dns_resolution_batch(benchmark, world):
    from repro.dnssim.resolver import DnsMode

    probes = world.usable_probes[:500]

    def resolve():
        return [
            world.resolvers.resolve(world.im6_service, p, DnsMode.LDNS)
            for p in probes
        ]

    answers = benchmark(resolve)
    assert len(set(answers)) > 1
