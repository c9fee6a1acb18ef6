"""The p-hop geolocation cascade and site enumeration."""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass

from repro import obs
from repro.geo.atlas import City, WorldAtlas
from repro.geo.coords import FIBER_KM_PER_MS_RTT, GeoPoint
from repro.geoloc.database import GeoDatabase
from repro.geoloc.rdns import ReverseDNS, parse_cctld, parse_geo_hint
from repro.measurement.engine import TracerouteResult
from repro.measurement.probes import Probe
from repro.netaddr.ipv4 import IPv4Address

#: The paper's RTT threshold for pinning a p-hop to a probe's metro:
#: "less than 1.5 ms RTT", i.e. ~150 km of fiber at 100 km per ms RTT.
RTT_RANGE_THRESHOLD_MS = 1.5


class Technique(enum.Enum):
    """Which pipeline stage resolved a p-hop (Fig. 3's legend)."""

    RDNS = "rDNS"
    RTT_RANGE = "RTT Range"
    COUNTRY_IPGEO = "Country-level IPGeo"
    UNRESOLVED = "Unresolved"


@dataclass(frozen=True)
class PhopResolution:
    """Outcome of geolocating one distinct p-hop address."""

    addr: IPv4Address
    technique: Technique
    #: Inferred location (None when unresolved).
    location: GeoPoint | None
    #: Closest published CDN site city (None when unresolved).
    site: City | None


@dataclass
class SiteMappingResult:
    """Everything the §4.4 pipeline produces for one measured prefix."""

    resolutions: dict[IPv4Address, PhopResolution]
    #: Inferred catchment site city per probe id (None when the trace had
    #: no valid p-hop or the p-hop stayed unresolved).
    catchment_site: dict[int, City | None]
    #: Distinct site cities enumerated for the prefix.
    sites: list[City]
    #: Fig. 3 accounting: distinct p-hops per technique.
    phops_by_technique: Counter
    #: Fig. 3 accounting: traceroutes per technique of their p-hop.
    traces_by_technique: Counter
    #: Traceroutes that had no responding p-hop at all (filtered in §5.3).
    traces_without_phop: int = 0

    def technique_fraction(self, of: str = "phops") -> dict[Technique, float]:
        """Normalised per-technique fractions ("phops" or "traces")."""
        counter = self.phops_by_technique if of == "phops" else self.traces_by_technique
        total = sum(counter.values())
        if total == 0:
            return {t: 0.0 for t in Technique}
        return {t: counter.get(t, 0) / total for t in Technique}


def router_ping_rtt_ms(probe: Probe, hop_location: GeoPoint) -> float:
    """RTT of a probe pinging a nearby router.

    Router pings skip most of the probe's last-mile budget (the access
    line is crossed once, and routers answer from their control plane
    quickly), so the dominant term is fiber distance.
    """
    return (
        0.5 * probe.last_mile_ms
        + probe.location.distance_km(hop_location) / FIBER_KM_PER_MS_RTT
        + 0.2
    )


class SiteMapper:
    """Runs the Appendix-B cascade over a set of traceroutes."""

    def __init__(
        self,
        atlas: WorldAtlas,
        rdns: ReverseDNS,
        databases: list[GeoDatabase],
        published_sites: list[City],
    ):
        if not databases:
            raise ValueError("the pipeline needs at least one geolocation database")
        if not published_sites:
            raise ValueError("the pipeline needs the provider's published site list")
        self._atlas = atlas
        self._rdns = rdns
        self._dbs = databases
        self._published = list(published_sites)
        self._published_by_country: dict[str, list[City]] = {}
        for city in published_sites:
            self._published_by_country.setdefault(city.country, []).append(city)
        self._closest: dict[tuple[float, float], City] = {}

    # ------------------------------------------------------------------
    def closest_site(self, location: GeoPoint) -> City:
        """The published site city closest to a location (memoized)."""
        key = (location.lat, location.lon)
        if key not in self._closest:
            self._closest[key] = min(
                self._published,
                key=lambda c: (c.location.distance_km(location), c.iata),
            )
        return self._closest[key]

    # ------------------------------------------------------------------
    def _resolve_rdns(self, addr: IPv4Address) -> GeoPoint | None:
        name = self._rdns.name_of(addr)
        if name is None:
            return None
        city = parse_geo_hint(name, self._atlas)
        if city is not None:
            return city.location
        # ccTLD fallback: a country-coded domain plus a single published
        # site in that country pins the p-hop to that site.
        country = parse_cctld(name)
        if country is not None:
            sites = self._published_by_country.get(country, [])
            if len(sites) == 1:
                return sites[0].location
        return None

    def _resolve_rtt_range(
        self, addr: IPv4Address, witnesses: list[Probe], hop_location: GeoPoint
    ) -> GeoPoint | None:
        """A witness probe within 1.5 ms pins the metro; database candidate
        locations are validated against the speed-of-light constraint and
        the valid candidate closest to the witness wins."""
        witness = None
        witness_rtt = RTT_RANGE_THRESHOLD_MS
        for probe in witnesses:
            rtt = router_ping_rtt_ms(probe, hop_location)
            if rtt < witness_rtt:
                witness, witness_rtt = probe, rtt
        if witness is None:
            return None
        max_km = witness_rtt * FIBER_KM_PER_MS_RTT
        best: tuple[float, GeoPoint] | None = None
        for db in self._dbs:
            record = db.lookup(addr)
            if record is None:
                continue
            km = record.location.distance_km(witness.location)
            if km > max_km:
                continue  # violates the speed-of-light constraint
            if best is None or km < best[0]:
                best = (km, record.location)
        return best[1] if best is not None else None

    def _resolve_country_ipgeo(self, addr: IPv4Address) -> GeoPoint | None:
        countries = set()
        for db in self._dbs:
            record = db.lookup(addr)
            if record is None:
                return None
            countries.add(record.country)
        if len(countries) != 1:
            return None
        sites = self._published_by_country.get(next(iter(countries)), [])
        if len(sites) == 1:
            return sites[0].location
        return None

    def resolve_phop(
        self, addr: IPv4Address, witnesses: list[Probe], hop_location: GeoPoint
    ) -> PhopResolution:
        """Run the cascade for one p-hop address.

        ``witnesses`` are the probes whose traces crossed the p-hop (the
        only probes the paper can ask to ping it); ``hop_location`` is the
        hop's true location, used solely to *simulate* the witness pings —
        the inference itself never reads it.
        """
        location = self._resolve_rdns(addr)
        technique = Technique.RDNS
        if location is None:
            location = self._resolve_rtt_range(addr, witnesses, hop_location)
            technique = Technique.RTT_RANGE
        if location is None:
            location = self._resolve_country_ipgeo(addr)
            technique = Technique.COUNTRY_IPGEO
        if location is None:
            return PhopResolution(
                addr=addr, technique=Technique.UNRESOLVED, location=None, site=None
            )
        return PhopResolution(
            addr=addr,
            technique=technique,
            location=location,
            site=self.closest_site(location),
        )

    # ------------------------------------------------------------------
    def map_traces(
        self,
        traces: dict[int, TracerouteResult],
        probes_by_id: dict[int, Probe],
    ) -> SiteMappingResult:
        """Run the full §4.4 pipeline over one prefix's traceroutes."""
        with obs.span("sitemap.map_traces", traces=len(traces)):
            return self._map_traces(traces, probes_by_id)

    def _map_traces(
        self,
        traces: dict[int, TracerouteResult],
        probes_by_id: dict[int, Probe],
    ) -> SiteMappingResult:
        # Gather witnesses and true hop locations per distinct p-hop.
        witnesses: dict[IPv4Address, list[Probe]] = {}
        hop_locations: dict[IPv4Address, GeoPoint] = {}
        traces_without_phop = 0
        phop_of_probe: dict[int, IPv4Address | None] = {}
        for probe_id, trace in traces.items():
            hop = trace.penultimate_hop
            if hop is None or hop.addr is None:
                traces_without_phop += 1
                phop_of_probe[probe_id] = None
                continue
            phop_of_probe[probe_id] = hop.addr
            probe = probes_by_id.get(probe_id)
            if probe is not None:
                witnesses.setdefault(hop.addr, []).append(probe)
            if trace.path is not None and trace.path.hops:
                hop_locations[hop.addr] = trace.path.hops[-1].city.location
        resolutions: dict[IPv4Address, PhopResolution] = {}
        for addr in sorted(witnesses, key=lambda a: a.value):
            resolutions[addr] = self.resolve_phop(
                addr, witnesses[addr], hop_locations[addr]
            )
        catchment: dict[int, City | None] = {}
        traces_by_technique: Counter = Counter()
        for probe_id, addr in phop_of_probe.items():
            if addr is None:
                catchment[probe_id] = None
                continue
            resolution = resolutions[addr]
            traces_by_technique[resolution.technique] += 1
            catchment[probe_id] = resolution.site
        phops_by_technique: Counter = Counter(
            r.technique for r in resolutions.values()
        )
        sites = sorted(
            {r.site for r in resolutions.values() if r.site is not None},
            key=lambda c: c.iata,
        )
        obs.counter.inc("sitemap.traces_mapped", len(traces))
        obs.counter.inc("sitemap.phops_distinct", len(resolutions))
        for technique, count in phops_by_technique.items():
            obs.counter.inc(f"sitemap.phop.{technique.name.lower()}", count)
        return SiteMappingResult(
            resolutions=resolutions,
            catchment_site=catchment,
            sites=sites,
            phops_by_technique=phops_by_technique,
            traces_by_technique=traces_by_technique,
            traces_without_phop=traces_without_phop,
        )
