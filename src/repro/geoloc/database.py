"""Synthetic geolocation databases with seeded error models.

City-level geolocation is known to be unreliable (the paper cites three
studies before refusing to trust it, Appendix B).  Each
:class:`GeoDatabase` wraps the ground-truth oracle with three error
processes, all deterministic per (database, address):

- **home-country bias** — infrastructure of international providers is
  reported in the provider's registration country rather than where it is
  deployed (one of the paper's two causes of countries seeing multiple
  regional IPs, §4.3);
- **random country error** — plain wrong entries;
- **coordinate fuzz** — city-level answers displaced by tens to hundreds
  of km, which is why the Appendix-B pipeline cross-checks coordinates
  against the speed-of-light constraint.

Three default instances stand in for MaxMind, ipinfo, and EdgeScape, with
*independent* errors so the "all databases agree on the country" consensus
rule of the country-level IPGeo technique has real content.

An answer is a pure function of the database (name, seed, error knobs)
and of the oracle's ground truth for the address, so each database keeps
one answer per address and per client subnet.  Probes behind one
resolver or subnet, the two Edgio sets that share the ``edgio-mapping``
database, and p-hops seen in several targets' traces ask the oracle
once.  The ground truth moves only with the topology, so the memo is
emptied when the oracle's topology version changes.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from repro.geo.coords import GeoPoint
from repro.geo.countries import iter_countries
from repro.geoloc.oracle import AddressAttribution, AddressKind, GeoOracle
from repro.netaddr.ipv4 import IPv4Address, IPv4Prefix

_ALL_COUNTRIES = tuple(iter_countries())


@dataclass(frozen=True)
class GeoRecord:
    """One database answer."""

    country: str
    location: GeoPoint

    def distance_km(self, point: GeoPoint) -> float:
        return self.location.distance_km(point)


@dataclass(frozen=True)
class GeoDbParams:
    """Error-model knobs of one database."""

    #: Probability an address of an AS deployed outside its home country is
    #: reported in the home country.
    home_country_bias: float = 0.5
    #: Probability of a plain wrong country for any address.
    country_error: float = 0.03
    #: Probability a (country-correct) answer is displaced by a large step.
    coord_error: float = 0.15
    #: Coordinate displacement range in km (small, large).
    coord_fuzz_km: tuple[float, float] = (15.0, 600.0)


class GeoDatabase:
    """One error-prone geolocation database."""

    def __init__(self, name: str, oracle: GeoOracle, params: GeoDbParams, seed: int = 0):
        self.name = name
        self.params = params
        self._oracle = oracle
        self._seed = seed
        self._topology = oracle.topology
        #: One answer per address (keyed on its integer value) and per
        #: subnet (``(network, length)``), valid for topology version
        #: ``_version``.
        self._answers: dict[object, GeoRecord | None] = {}
        self._version = self._topology.version

    # ------------------------------------------------------------------
    def _hash01(self, *parts: object) -> float:
        digest = hashlib.sha256(
            "|".join(str(p) for p in (self.name, self._seed, *parts)).encode()
        ).digest()
        return int.from_bytes(digest[:8], "big") / float(1 << 64)

    def _displace(self, addr: IPv4Address, point: GeoPoint, km: float) -> GeoPoint:
        bearing = self._hash01("bearing", addr) * 2.0 * math.pi
        dlat = (km / 111.0) * math.cos(bearing)
        cos_lat = max(0.1, math.cos(math.radians(point.lat)))
        dlon = (km / (111.0 * cos_lat)) * math.sin(bearing)
        lat = max(-89.9, min(89.9, point.lat + dlat))
        lon = ((point.lon + dlon + 180.0) % 360.0) - 180.0
        return GeoPoint(lat, lon)

    def _wrong_country(self, addr: IPv4Address) -> str:
        idx = int(self._hash01("wrong-country", addr) * len(_ALL_COUNTRIES))
        return _ALL_COUNTRIES[min(idx, len(_ALL_COUNTRIES) - 1)]

    # ------------------------------------------------------------------
    def lookup(self, addr: IPv4Address) -> GeoRecord | None:
        """The database's answer for an address (None for unknown space)."""
        answers = self._memo()
        key = addr.value
        if key in answers:
            return answers[key]
        truth = self._oracle.attribute(addr)
        record = answers[key] = (
            None if truth is None else self._record_for(addr, truth)
        )
        return record

    def lookup_subnet(self, subnet: IPv4Prefix) -> GeoRecord | None:
        """The database's answer for a client /24 (used by ECS mapping)."""
        answers = self._memo()
        key = (subnet.network, subnet.length)
        if key in answers:
            return answers[key]
        truth = self._oracle.attribute_subnet(subnet)
        record = answers[key] = (
            None if truth is None
            else self._record_for(subnet.network_address, truth)
        )
        return record

    def _memo(self) -> dict[object, GeoRecord | None]:
        """The answers given under the topology's current version; the
        memo is emptied when the version moves."""
        version = self._topology.version
        if version != self._version:
            self._answers.clear()
            self._version = version
        return self._answers

    def _record_for(self, addr: IPv4Address, truth: AddressAttribution) -> GeoRecord:
        p = self.params
        # Plain wrong country, independent of everything else.
        if self._hash01("country-err", addr) < p.country_error:
            country = self._wrong_country(addr)
            # A wrong-country record points far from the truth.
            location = self._displace(addr, truth.location, 3000.0)
            return GeoRecord(country=country, location=location)
        # Home-country bias for infrastructure deployed abroad.  Probe and
        # host addresses of international providers are affected too —
        # that is precisely the paper's transit-provider observation.
        if (
            truth.owner_home_country is not None
            and truth.owner_home_country != truth.country
            and truth.kind
            in (AddressKind.ROUTER, AddressKind.PROBE, AddressKind.HOST_SUBNET)
            and self._hash01("home-bias", addr) < p.home_country_bias
        ):
            return GeoRecord(
                country=truth.owner_home_country,
                location=self._displace(addr, truth.location, 2000.0),
            )
        if self._hash01("coord-err", addr) < p.coord_error:
            lo, hi = p.coord_fuzz_km
            km = lo + self._hash01("coord-km", addr) * (hi - lo)
        else:
            km = self.params.coord_fuzz_km[0] * self._hash01("coord-km", addr)
        return GeoRecord(
            country=truth.country,
            location=self._displace(addr, truth.location, km),
        )


def default_databases(oracle: GeoOracle, seed: int = 0) -> list[GeoDatabase]:
    """The three databases the paper consults (MaxMind, ipinfo, EdgeScape).

    Error rates differ per database so their consensus carries signal.
    """
    return [
        GeoDatabase(
            "maxmind-like",
            oracle,
            GeoDbParams(home_country_bias=0.45, country_error=0.02, coord_error=0.12),
            seed=seed,
        ),
        GeoDatabase(
            "ipinfo-like",
            oracle,
            GeoDbParams(home_country_bias=0.55, country_error=0.03, coord_error=0.18),
            seed=seed + 1,
        ),
        GeoDatabase(
            "edgescape-like",
            oracle,
            GeoDbParams(home_country_bias=0.40, country_error=0.04, coord_error=0.15),
            seed=seed + 2,
        ),
    ]
