"""Tests for the geolocation oracle, databases, and rDNS."""

import pytest

from repro.geo.atlas import load_default_atlas
from repro.geoloc.database import GeoDatabase, GeoDbParams, default_databases
from repro.geoloc.oracle import AddressKind, GeoOracle
from repro.geoloc.rdns import (
    RdnsParams,
    ReverseDNS,
    clli_code,
    parse_cctld,
    parse_geo_hint,
)
from repro.measurement.probes import ProbeParams, ProbePopulation
from repro.netaddr.ipv4 import IPv4Address
from repro.topology.asys import LinkKind

ATLAS = load_default_atlas()


@pytest.fixture(scope="module")
def oracle(tiny_topology):
    probes = ProbePopulation(tiny_topology, ProbeParams(seed=21, num_probes=150))
    return GeoOracle(tiny_topology, probes), probes


class TestOracle:
    def test_router_interface_attribution(self, oracle, tiny_topology):
        oracle, _ = oracle
        link = next(l for l in tiny_topology.links() if l.kind is LinkKind.TRANSIT)
        ic = link.interconnects[0]
        truth = oracle.attribute(ic.addr_a)
        assert truth is not None
        assert truth.kind is AddressKind.ROUTER
        assert truth.city.iata == ic.city.iata
        assert truth.owner_node == link.a

    def test_ixp_lan_attribution(self, oracle, tiny_topology):
        oracle, _ = oracle
        link = next(
            (l for l in tiny_topology.links() if l.ixp_id is not None), None
        )
        if link is None:
            pytest.skip("tiny topology generated no IXP sessions")
        truth = oracle.attribute(link.interconnects[0].addr_a)
        assert truth.kind is AddressKind.IXP_LAN
        assert truth.ixp_id == link.ixp_id

    def test_probe_attribution(self, oracle):
        oracle, probes = oracle
        p = probes.all_probes()[0]
        truth = oracle.attribute(p.addr)
        assert truth.kind is AddressKind.PROBE
        assert truth.country == p.country
        assert truth.location == p.location

    def test_host_subnet_attribution(self, oracle):
        oracle, probes = oracle
        p = probes.all_probes()[0]
        truth = oracle.attribute_subnet(p.client_subnet)
        assert truth is not None
        assert truth.kind is AddressKind.HOST_SUBNET
        assert truth.owner_node == p.as_node

    def test_unknown_space_returns_none(self, oracle):
        oracle, _ = oracle
        assert oracle.attribute(IPv4Address.parse("203.0.113.7")) is None


class TestGeoDatabase:
    def test_lookup_deterministic(self, oracle):
        oracle, probes = oracle
        db = GeoDatabase("db", oracle, GeoDbParams(), seed=1)
        p = probes.all_probes()[0]
        assert db.lookup(p.addr) == db.lookup(p.addr)

    def test_unknown_space_none(self, oracle):
        oracle, _ = oracle
        db = GeoDatabase("db", oracle, GeoDbParams(), seed=1)
        assert db.lookup(IPv4Address.parse("203.0.113.7")) is None

    def test_zero_error_db_is_truthful(self, oracle):
        oracle, probes = oracle
        db = GeoDatabase(
            "perfect",
            oracle,
            GeoDbParams(home_country_bias=0.0, country_error=0.0, coord_error=0.0,
                        coord_fuzz_km=(0.0, 0.0)),
            seed=1,
        )
        for p in probes.all_probes()[:40]:
            record = db.lookup(p.addr)
            assert record.country == p.country

    def test_country_error_rate_statistical(self, oracle):
        oracle, probes = oracle
        db = GeoDatabase(
            "noisy",
            oracle,
            GeoDbParams(home_country_bias=0.0, country_error=0.3, coord_error=0.0),
            seed=2,
        )
        sample = probes.all_probes()
        wrong = sum(
            1 for p in sample if db.lookup(p.addr).country != p.country
        )
        rate = wrong / len(sample)
        assert 0.15 < rate < 0.45  # ~0.3 with sampling noise

    def test_home_country_bias_applies_to_foreign_deployments(self, tiny_topology, oracle):
        oracle_, _ = oracle
        db = GeoDatabase(
            "biased",
            oracle_,
            GeoDbParams(home_country_bias=1.0, country_error=0.0, coord_error=0.0),
            seed=3,
        )
        # Find a router interface deployed outside its AS's home country.
        for link in tiny_topology.links():
            if link.kind is not LinkKind.TRANSIT:
                continue
            node = tiny_topology.node(link.a)
            for ic in link.interconnects:
                if ic.city.country != node.home_country:
                    record = db.lookup(ic.addr_a)
                    assert record.country == node.home_country
                    return
        pytest.skip("no foreign-deployed interface in tiny topology")

    def test_default_databases_disagree_sometimes(self, oracle):
        oracle_, probes = oracle
        dbs = default_databases(oracle_, seed=5)
        assert len(dbs) == 3
        disagreements = 0
        for p in probes.all_probes():
            answers = {db.lookup(p.addr).country for db in dbs}
            if len(answers) > 1:
                disagreements += 1
        assert disagreements > 0


class TestReverseDNS:
    def test_clli_code_shape(self):
        code = clli_code(ATLAS.get("AMS"))
        assert code == "amstnl"

    def test_names_deterministic(self, oracle, tiny_topology):
        oracle_, _ = oracle
        rdns = ReverseDNS(oracle_, seed=7)
        link = next(l for l in tiny_topology.links() if l.kind is LinkKind.TRANSIT)
        addr = link.interconnects[0].addr_a
        assert rdns.name_of(addr) == rdns.name_of(addr)

    def test_full_coverage_names_parse_back_to_city(self, oracle, tiny_topology):
        oracle_, _ = oracle
        rdns = ReverseDNS(
            oracle_,
            RdnsParams(router_coverage=1.0, iata_style_fraction=1.0,
                       clli_style_fraction=0.0),
            seed=7,
        )
        checked = 0
        for link in tiny_topology.links():
            if link.kind is not LinkKind.TRANSIT:
                continue
            for ic in link.interconnects[:1]:
                name = rdns.name_of(ic.addr_a)
                assert name is not None
                city = parse_geo_hint(name, ATLAS)
                assert city is not None and city.iata == ic.city.iata
                checked += 1
            if checked > 30:
                break
        assert checked > 10

    def test_clli_style_names_parse(self, oracle, tiny_topology):
        oracle_, _ = oracle
        rdns = ReverseDNS(
            oracle_,
            RdnsParams(router_coverage=1.0, iata_style_fraction=0.0,
                       clli_style_fraction=1.0),
            seed=7,
        )
        link = next(l for l in tiny_topology.links() if l.kind is LinkKind.TRANSIT)
        ic = link.interconnects[0]
        name = rdns.name_of(ic.addr_a)
        city = parse_geo_hint(name, ATLAS)
        assert city is not None and city.iata == ic.city.iata

    def test_opaque_style_names_do_not_parse(self, oracle, tiny_topology):
        oracle_, _ = oracle
        rdns = ReverseDNS(
            oracle_,
            RdnsParams(router_coverage=1.0, iata_style_fraction=0.0,
                       clli_style_fraction=0.0, cctld_fraction=0.0),
            seed=7,
        )
        parsed = 0
        total = 0
        for link in tiny_topology.links():
            if link.kind is not LinkKind.TRANSIT:
                continue
            name = rdns.name_of(link.interconnects[0].addr_a)
            if name is None:
                continue
            total += 1
            if parse_geo_hint(name, ATLAS) is not None:
                parsed += 1
            if total >= 40:
                break
        assert total > 0 and parsed == 0

    def test_zero_coverage_yields_no_names(self, oracle, tiny_topology):
        oracle_, _ = oracle
        rdns = ReverseDNS(oracle_, RdnsParams(router_coverage=0.0,
                                              ixp_lan_coverage=0.0), seed=7)
        for link in list(tiny_topology.links())[:20]:
            assert rdns.name_of(link.interconnects[0].addr_a) is None

    def test_parse_cctld(self):
        assert parse_cctld("ae-1.cr1.fra2.as123.de") == "DE"
        assert parse_cctld("ae-1.cr1.fra2.as123.net") is None
        assert parse_cctld("host.example.xx") is None

    def test_parse_geo_hint_ignores_noise(self):
        assert parse_geo_hint("ae-65.core1.xqzk2.as99.net", ATLAS) is None
        got = parse_geo_hint("ae-65.core1.amb.as99.net", ATLAS)
        assert got is None  # 'amb' is not in the embedded atlas

    def test_probe_addresses_have_no_rdns(self, oracle):
        oracle_, probes = oracle
        rdns = ReverseDNS(oracle_, seed=7)
        assert rdns.name_of(probes.all_probes()[0].addr) is None
