"""The shared experiment world: everything built once, measured lazily.

A :class:`World` assembles the full reproduction stack on one simulated
Internet:

- the base topology (tier-1s, transits, stubs, IXPs);
- the Edgio and Imperva deployments and the Tangled testbed;
- the probe population, measurement engine, and probe groups;
- the geolocation oracle, the three public geolocation databases, the
  CDNs' internal mapping databases, rDNS, and the resolver pool;
- representative customer hostnames for the Edgio-3 / Edgio-4 /
  Imperva-6 sets.

Measurements (pings, traceroutes, DNS resolutions, site mappings) are
cached per target address so the experiments share work instead of
re-measuring.  Beneath those caches the measurement engine walks each
probe's path once per routing table (see
:mod:`repro.measurement.engine`), so even an uncached measurement of a
known path costs only its jitter.
"""

from __future__ import annotations

from repro import obs
from repro.analysis.compare import ProbeObservation
from repro.analysis.cases import phop_owner
from repro.cdn.deployment import GlobalDeployment, RegionalDeployment
from repro.cdn.edgio import EdgioModel, build_edgio
from repro.cdn.imperva import ImpervaModel, build_imperva
from repro.dnssim.resolver import DnsMode, ResolverPool
from repro.dnssim.service import GeoMappingService
from repro.experiments.config import DEFAULT, ExperimentConfig
from repro.geo.atlas import City
from repro.geoloc.database import GeoDatabase, GeoDbParams, default_databases
from repro.geoloc.oracle import GeoOracle
from repro.geoloc.rdns import ReverseDNS
from repro.measurement.engine import (
    MeasurementEngine,
    PingResult,
    ServiceRegistry,
    TracerouteResult,
)
from repro.measurement.grouping import ProbeGroup, group_probes
from repro.measurement.probes import Probe, ProbePopulation
from repro.netaddr.ipv4 import IPv4Address
from repro.par.cache import resolve_cache
from repro.sitemap.pipeline import SiteMapper, SiteMappingResult
from repro.tangled.testbed import TangledTestbed, build_tangled
from repro.topology.builder import InternetBuilder
from repro.topology.graph import Topology

#: Representative hostnames, as in §4.3.
EG3_HOSTNAME = "www.straitstimes.com"
EG4_HOSTNAME = "www.asus.com"
IM6_HOSTNAME = "www.stamps.com"


class World:
    """One fully built experiment world."""

    def __init__(self, config: ExperimentConfig | None = None):
        self.config = config or DEFAULT
        cfg = self.config
        with obs.span("world.build", config=cfg.name):
            with obs.span("world.topology"):
                self.topology: Topology = InternetBuilder(cfg.topology).build()
            with obs.span("world.deployments"):
                self.edgio: EdgioModel = build_edgio(
                    self.topology, seed=cfg.deployment_seed
                )
                self.imperva: ImpervaModel = build_imperva(
                    self.topology, seed=cfg.deployment_seed + 1
                )
                self.tangled: TangledTestbed = build_tangled(
                    self.topology, seed=cfg.deployment_seed + 2
                )
            with obs.span("world.probes"):
                self.probes = ProbePopulation(self.topology, cfg.probes)
            with obs.span("world.measurement"):
                self.registry = ServiceRegistry()
                self.edgio.eg3.register(self.registry)
                self.edgio.eg4.register(self.registry)
                self.imperva.im6.register(self.registry)
                self.imperva.ns.register(self.registry)
                self.tangled.register(self.registry)
                self.engine = MeasurementEngine(
                    self.topology, self.registry, seed=cfg.measurement_seed
                )
                # On-disk routing-table store when configured
                # (REPRO_CACHE_DIR / --cache-dir); None by default.
                self.engine.routing.persistent_cache = resolve_cache()
            with obs.span("world.geoloc"):
                self.oracle = GeoOracle(self.topology, self.probes)
                self.databases = default_databases(self.oracle, seed=cfg.geodb_seed)
                #: CDNs' internal client-mapping databases (distinct error draws).
                self.edgio_db = GeoDatabase(
                    "edgio-mapping", self.oracle, GeoDbParams(),
                    seed=cfg.geodb_seed + 10
                )
                self.imperva_db = GeoDatabase(
                    "imperva-mapping", self.oracle, GeoDbParams(),
                    seed=cfg.geodb_seed + 11
                )
                self.route53_db = GeoDatabase(
                    "route53-mapping", self.oracle, GeoDbParams(),
                    seed=cfg.geodb_seed + 12
                )
                self.rdns = ReverseDNS(self.oracle, seed=cfg.rdns_seed)
            with obs.span("world.dns"):
                self.resolvers = ResolverPool(self.probes, seed=cfg.resolver_seed)
            with obs.span("world.grouping"):
                self.usable_probes: list[Probe] = self.probes.usable_probes()
                self.probe_by_id: dict[int, Probe] = {
                    p.probe_id: p for p in self.usable_probes
                }
                self.groups: list[ProbeGroup] = group_probes(
                    self.probes.all_probes()
                )
            with obs.span("world.services"):
                self.eg3_service = self.edgio.eg3.service_for(
                    EG3_HOSTNAME, self.edgio_db
                )
                self.eg4_service = self.edgio.eg4.service_for(
                    EG4_HOSTNAME, self.edgio_db
                )
                self.im6_service = self.imperva.im6.service_for(
                    IM6_HOSTNAME, self.imperva_db
                )
            with obs.span("world.routing"):
                # Precompute every announced prefix in one batch: with
                # REPRO_WORKERS set this fans out across processes, and
                # every later compute() in the experiments is a cache
                # hit either way.
                self.engine.routing.compute_many(self.registry.announcements())
            obs.gauge.set("world.usable_probes", len(self.usable_probes))
            obs.gauge.set("world.probe_groups", len(self.groups))
        self._ping_cache: dict[tuple[IPv4Address, object], dict[int, PingResult]] = {}
        self._trace_cache: dict[IPv4Address, dict[int, TracerouteResult]] = {}
        self._resolve_cache: dict[tuple[str, DnsMode], dict[int, IPv4Address]] = {}
        self._sitemap_cache: dict[tuple[IPv4Address, tuple[str, ...]], SiteMappingResult] = {}

    # ------------------------------------------------------------------
    # Cached measurement primitives
    # ------------------------------------------------------------------
    def ping_all(
        self, addr: IPv4Address, salt: object = None
    ) -> dict[int, PingResult]:
        """Ping ``addr`` from every usable probe (cached)."""
        key = (addr, salt)
        cached = self._ping_cache.get(key)
        if cached is None:
            with obs.span("world.ping_all", addr=str(addr)):
                cached = self.engine.ping_many(self.usable_probes, addr,
                                               salt=salt)
                obs.counter.inc("measurement.pings", len(cached))
            self._ping_cache[key] = cached
        return cached

    def trace_all(self, addr: IPv4Address) -> dict[int, TracerouteResult]:
        """Traceroute to ``addr`` from every usable probe (cached)."""
        cached = self._trace_cache.get(addr)
        if cached is None:
            with obs.span("world.trace_all", addr=str(addr)):
                cached = self.engine.traceroute_many(self.usable_probes, addr)
                obs.counter.inc("measurement.traceroutes", len(cached))
            self._trace_cache[addr] = cached
        return cached

    def resolve_all(
        self, service: GeoMappingService, mode: DnsMode
    ) -> dict[int, IPv4Address]:
        """Resolve a hostname from every usable probe (cached)."""
        key = (service.hostname, mode)
        cached = self._resolve_cache.get(key)
        if cached is None:
            with obs.span("world.resolve_all", hostname=service.hostname,
                          mode=mode.value):
                cached = {
                    p.probe_id: self.resolvers.resolve(service, p, mode)
                    for p in self.usable_probes
                }
            self._resolve_cache[key] = cached
        return cached

    # ------------------------------------------------------------------
    # Group-level aggregates
    # ------------------------------------------------------------------
    def group_median_rtt(
        self, addr: IPv4Address, salt: object = None
    ) -> dict[tuple[str, int], float]:
        """Per-group median RTT to an address."""
        pings = self.ping_all(addr, salt=salt)
        rtts = {
            pid: r.rtt_ms for pid, r in pings.items() if r.rtt_ms is not None
        }
        result: dict[tuple[str, int], float] = {}
        for group in self.groups:
            median = group.median(rtts)
            if median is not None:
                result[group.key] = median
        return result

    def group_received_addr(
        self, service: GeoMappingService, mode: DnsMode
    ) -> dict[tuple[str, int], IPv4Address]:
        """Per-group majority DNS answer for a hostname."""
        answers = self.resolve_all(service, mode)
        result: dict[tuple[str, int], IPv4Address] = {}
        for group in self.groups:
            winner = group.majority(answers)
            if winner is not None:
                result[group.key] = winner
        return result

    # ------------------------------------------------------------------
    # Site mapping (§4.4)
    # ------------------------------------------------------------------
    def site_mapper(self, published: list[City]) -> SiteMapper:
        return SiteMapper(
            atlas=self.topology.atlas,  # type: ignore[attr-defined]
            rdns=self.rdns,
            databases=self.databases,
            published_sites=published,
        )

    def map_sites_for_address(
        self, addr: IPv4Address, published: list[City]
    ) -> SiteMappingResult:
        """Run the p-hop pipeline over all traces to one address (cached)."""
        key = (addr, tuple(sorted(c.iata for c in published)))
        cached = self._sitemap_cache.get(key)
        if cached is None:
            traces = self.trace_all(addr)
            with obs.span("world.map_sites", addr=str(addr)):
                cached = self.site_mapper(published).map_traces(
                    traces, self.probe_by_id
                )
            self._sitemap_cache[key] = cached
        return cached

    def enumerate_deployment_sites(
        self, deployment: RegionalDeployment
    ) -> dict[str, SiteMappingResult]:
        """Per-region site mapping for a regional deployment."""
        return {
            region: self.map_sites_for_address(
                deployment.address_of_region(region), deployment.published_cities
            )
            for region in deployment.region_names
        }

    def enumerate_global_sites(self, deployment: GlobalDeployment) -> SiteMappingResult:
        return self.map_sites_for_address(
            deployment.address, deployment.published_cities
        )

    # ------------------------------------------------------------------
    # §5.3 observations
    # ------------------------------------------------------------------
    def observations_regional(
        self,
        deployment: RegionalDeployment,
        service: GeoMappingService,
        mode: DnsMode = DnsMode.LDNS,
    ) -> dict[int, ProbeObservation]:
        """Per-probe (RTT, inferred site, p-hop owner) for the regional IP
        each probe received from DNS."""
        answers = self.resolve_all(service, mode)
        observations: dict[int, ProbeObservation] = {}
        for probe in self.usable_probes:
            addr = answers[probe.probe_id]
            observations[probe.probe_id] = self._observe(probe, addr,
                                                         deployment.published_cities)
        return observations

    def observations_global(
        self, deployment: GlobalDeployment
    ) -> dict[int, ProbeObservation]:
        return {
            probe.probe_id: self._observe(
                probe, deployment.address, deployment.published_cities
            )
            for probe in self.usable_probes
        }

    def _observe(
        self, probe: Probe, addr: IPv4Address, published: list[City]
    ) -> ProbeObservation:
        mapping = self.map_sites_for_address(addr, published)
        trace = self.trace_all(addr)[probe.probe_id]
        ping = self.ping_all(addr)[probe.probe_id]
        phop = trace.penultimate_hop
        owner = None
        if phop is not None and phop.addr is not None:
            owner = phop_owner(self.topology, phop.addr)
        return ProbeObservation(
            probe_id=probe.probe_id,
            rtt_ms=ping.rtt_ms,
            site=mapping.catchment_site.get(probe.probe_id),
            peer_owner=owner,
        )


_WORLDS: dict[str, World] = {}


def get_world(config: ExperimentConfig | None = None) -> World:
    """A process-wide cached world per configuration name."""
    cfg = config or DEFAULT
    world = _WORLDS.get(cfg.name)
    if world is None:
        world = World(cfg)
        _WORLDS[cfg.name] = world
    return world
