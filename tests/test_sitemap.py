"""Tests for the Appendix-B p-hop geolocation pipeline."""

import pytest

from repro.anycast.network import AnycastNetwork
from repro.geo.atlas import City
from repro.geoloc.database import GeoDatabase, GeoDbParams, default_databases
from repro.geoloc.oracle import GeoOracle
from repro.geoloc.rdns import RdnsParams, ReverseDNS
from repro.measurement.engine import MeasurementEngine, ServiceRegistry
from repro.measurement.probes import ProbeParams, ProbePopulation
from repro.sitemap.pipeline import (
    RTT_RANGE_THRESHOLD_MS,
    SiteMapper,
    Technique,
    router_ping_rtt_ms,
)


@pytest.fixture(scope="module")
def pipeline_world(tiny_topology):
    probes = ProbePopulation(tiny_topology, ProbeParams(seed=41, num_probes=400))
    net = AnycastNetwork("sm", asn=64700, topology=tiny_topology, seed=13)
    for iata in ("AMS", "JFK", "SIN", "GRU", "FRA"):
        net.add_site(iata)
    prefix = net.allocate_service_prefix()
    ann = net.announcement(prefix, net.site_names())
    registry = ServiceRegistry()
    registry.register(ann)
    engine = MeasurementEngine(tiny_topology, registry, seed=14)
    oracle = GeoOracle(tiny_topology, probes)
    addr = net.service_address(prefix)
    traces = {
        p.probe_id: engine.traceroute(p, addr) for p in probes.usable_probes()
    }
    byid = {p.probe_id: p for p in probes.usable_probes()}
    published = [net.site(n).city for n in net.site_names()]
    return tiny_topology, probes, oracle, traces, byid, published, net, addr


def make_mapper(oracle, published, rdns_params=None, dbs=None, topo=None):
    atlas = (topo or oracle.topology).atlas
    rdns = ReverseDNS(oracle, rdns_params, seed=15)
    return SiteMapper(
        atlas=atlas,
        rdns=rdns,
        databases=dbs or default_databases(oracle, seed=16),
        published_sites=published,
    )


class TestPipelineEndToEnd:
    def test_enumerates_sites_accurately(self, pipeline_world):
        topo, probes, oracle, traces, byid, published, net, addr = pipeline_world
        mapper = make_mapper(oracle, published)
        result = mapper.map_traces(traces, byid)
        found = {c.iata for c in result.sites}
        deployed = {net.site(n).city.iata for n in net.site_names()}
        # The pipeline can only find sites that attract traffic; every
        # site it reports must be real.
        assert found <= deployed
        assert len(found) >= 3

    def test_catchment_inference_matches_ground_truth(self, pipeline_world):
        topo, probes, oracle, traces, byid, published, net, addr = pipeline_world
        mapper = make_mapper(oracle, published)
        result = mapper.map_traces(traces, byid)
        ok = bad = 0
        for pid, trace in traces.items():
            inferred = result.catchment_site.get(pid)
            if inferred is None or trace.path is None:
                continue
            if inferred.iata == trace.path.dest_city.iata:
                ok += 1
            else:
                bad += 1
        assert ok > 0
        assert bad <= 0.1 * (ok + bad)

    def test_technique_accounting_sums_to_one(self, pipeline_world):
        topo, probes, oracle, traces, byid, published, net, addr = pipeline_world
        mapper = make_mapper(oracle, published)
        result = mapper.map_traces(traces, byid)
        for of in ("phops", "traces"):
            fractions = result.technique_fraction(of)
            assert sum(fractions.values()) == pytest.approx(1.0)

    def test_no_rdns_forces_other_techniques(self, pipeline_world):
        topo, probes, oracle, traces, byid, published, net, addr = pipeline_world
        mapper = make_mapper(
            oracle, published,
            rdns_params=RdnsParams(router_coverage=0.0, ixp_lan_coverage=0.0),
        )
        result = mapper.map_traces(traces, byid)
        assert result.phops_by_technique.get(Technique.RDNS, 0) == 0
        assert sum(result.phops_by_technique.values()) > 0

    def test_empty_inputs_rejected(self, pipeline_world):
        topo, probes, oracle, traces, byid, published, net, addr = pipeline_world
        rdns = ReverseDNS(oracle, seed=15)
        with pytest.raises(ValueError):
            SiteMapper(topo.atlas, rdns, [], published)
        with pytest.raises(ValueError):
            SiteMapper(topo.atlas, rdns,
                       default_databases(oracle, seed=16), [])

    def test_unresolved_phops_have_no_site(self, pipeline_world):
        topo, probes, oracle, traces, byid, published, net, addr = pipeline_world
        mapper = make_mapper(
            oracle, published,
            rdns_params=RdnsParams(router_coverage=0.0, ixp_lan_coverage=0.0),
            dbs=[GeoDatabase("broken", oracle,
                             GeoDbParams(country_error=1.0), seed=99)],
        )
        result = mapper.map_traces(traces, byid)
        for resolution in result.resolutions.values():
            if resolution.technique is Technique.UNRESOLVED:
                assert resolution.site is None and resolution.location is None


class TestRttRangeTechnique:
    def test_router_ping_model_scales_with_distance(self, pipeline_world):
        topo, probes, *_ = pipeline_world
        p = probes.usable_probes()[0]
        near = router_ping_rtt_ms(p, p.location)
        import dataclasses

        far_point = topo.atlas.get("SIN").location
        far = router_ping_rtt_ms(p, far_point)
        if p.location.distance_km(far_point) > 500:
            assert far > near

    def test_threshold_matches_paper(self):
        assert RTT_RANGE_THRESHOLD_MS == 1.5

    def test_witnesses_required_for_rtt_range(self, pipeline_world):
        topo, probes, oracle, traces, byid, published, net, addr = pipeline_world
        mapper = make_mapper(
            oracle, published,
            rdns_params=RdnsParams(router_coverage=0.0, ixp_lan_coverage=0.0),
        )
        # With no witnesses, the RTT-range stage cannot fire.
        some_addr = next(iter(
            t.penultimate_hop.addr for t in traces.values()
            if t.penultimate_hop is not None
        ))
        location = topo.atlas.get("AMS").location
        resolution = mapper.resolve_phop(some_addr, witnesses=[], hop_location=location)
        assert resolution.technique in (Technique.COUNTRY_IPGEO, Technique.UNRESOLVED)


class TestClosestSiteMapping:
    def test_closest_site(self, pipeline_world):
        topo, probes, oracle, traces, byid, published, net, addr = pipeline_world
        mapper = make_mapper(oracle, published)
        ams = topo.atlas.get("AMS").location
        assert mapper.closest_site(ams).iata == "AMS"
        tokyo = topo.atlas.get("NRT").location
        # Tokyo is closest to the SIN site among the published five.
        assert mapper.closest_site(tokyo).iata == "SIN"

    def test_memo_returns_the_fresh_minimum(self, pipeline_world):
        topo, probes, oracle, traces, byid, published, net, addr = pipeline_world
        mapper = make_mapper(oracle, published)
        for probe in probes.usable_probes()[:60]:
            loc = probe.location
            ranks = [(c.location.distance_km(loc), c.iata) for c in published]
            expected = published[ranks.index(min(ranks))]
            assert mapper.closest_site(loc) is expected
            assert mapper.closest_site(loc) is expected  # served by the memo

    def test_ties_go_to_the_smaller_iata_code(self, pipeline_world):
        topo, probes, oracle, traces, byid, published, net, addr = pipeline_world
        ams = topo.atlas.get("AMS")
        twin = City("AAA", "Twin of Amsterdam", ams.country, ams.location)
        mapper = make_mapper(oracle, [ams, twin, *published])
        assert mapper.closest_site(ams.location) is twin
        assert mapper.closest_site(ams.location) is twin
