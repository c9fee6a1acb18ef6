"""Embedded world atlas: major cities with IATA codes.

The paper maps each RIPE Atlas probe to "its closest airport within the same
country" and uses the airport's IATA code as the probe's city code (§3.1).
CDN PoP lists are also published at city granularity, and rDNS geo-hints
embed IATA codes (Appendix B).  This module provides the common city
directory all of those layers share.

The atlas is embedded (no data files, no network) and deterministic.  It
covers the metros where real CDN PoPs, IXPs, and RIPE Atlas probes are
concentrated, with coordinates accurate to well under the 100 km resolution
the latency model can distinguish.

Every city-to-city distance the world build and the routing plane need
comes from :func:`city_km`: one great-circle distance per ordered pair of
the default atlas's cities, kept in one ``array('d')`` row per city and
filled on first use.  A LARGE build asks for about half a million such
distances over a few tens of thousands of distinct pairs.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import cached_property

from repro.geo.areas import Area, area_of_country
from repro.geo.coords import GeoPoint, great_circle_km
from repro.geo.countries import Continent, continent_of

# (IATA, city name, country code, lat, lon)
_CITY_ROWS: tuple[tuple[str, str, str, float, float], ...] = (
    # --- North America: United States -------------------------------------
    ("JFK", "New York", "US", 40.71, -74.01),
    ("IAD", "Ashburn", "US", 39.04, -77.49),
    ("BOS", "Boston", "US", 42.36, -71.06),
    ("PHL", "Philadelphia", "US", 39.95, -75.17),
    ("ATL", "Atlanta", "US", 33.75, -84.39),
    ("MIA", "Miami", "US", 25.76, -80.19),
    ("TPA", "Tampa", "US", 27.95, -82.46),
    ("CLT", "Charlotte", "US", 35.23, -80.84),
    ("ORD", "Chicago", "US", 41.88, -87.63),
    ("DTW", "Detroit", "US", 42.33, -83.05),
    ("MSP", "Minneapolis", "US", 44.98, -93.27),
    ("STL", "St. Louis", "US", 38.63, -90.20),
    ("MCI", "Kansas City", "US", 39.10, -94.58),
    ("DFW", "Dallas", "US", 32.78, -96.80),
    ("IAH", "Houston", "US", 29.76, -95.37),
    ("AUS", "Austin", "US", 30.27, -97.74),
    ("DEN", "Denver", "US", 39.74, -104.99),
    ("SLC", "Salt Lake City", "US", 40.76, -111.89),
    ("PHX", "Phoenix", "US", 33.45, -112.07),
    ("LAS", "Las Vegas", "US", 36.17, -115.14),
    ("LAX", "Los Angeles", "US", 34.05, -118.24),
    ("SAN", "San Diego", "US", 32.72, -117.16),
    ("SJC", "San Jose", "US", 37.34, -121.89),
    ("SFO", "San Francisco", "US", 37.77, -122.42),
    ("SEA", "Seattle", "US", 47.61, -122.33),
    ("PDX", "Portland", "US", 45.52, -122.68),
    ("BUF", "Buffalo", "US", 42.89, -78.88),
    ("DCA", "Washington", "US", 38.91, -77.04),
    ("PIT", "Pittsburgh", "US", 40.44, -79.99),
    ("HNL", "Honolulu", "US", 21.31, -157.86),
    # --- North America: Canada -------------------------------------------
    ("YYZ", "Toronto", "CA", 43.65, -79.38),
    ("YUL", "Montreal", "CA", 45.50, -73.57),
    ("YVR", "Vancouver", "CA", 49.28, -123.12),
    ("YYC", "Calgary", "CA", 51.05, -114.07),
    ("YEG", "Edmonton", "CA", 53.55, -113.49),
    ("YOW", "Ottawa", "CA", 45.42, -75.70),
    ("YWG", "Winnipeg", "CA", 49.90, -97.14),
    ("YHZ", "Halifax", "CA", 44.65, -63.58),
    # --- Latin America -----------------------------------------------------
    ("MEX", "Mexico City", "MX", 19.43, -99.13),
    ("GDL", "Guadalajara", "MX", 20.67, -103.35),
    ("MTY", "Monterrey", "MX", 25.69, -100.32),
    ("GUA", "Guatemala City", "GT", 14.63, -90.51),
    ("SAL", "San Salvador", "SV", 13.69, -89.22),
    ("SJO", "San Jose CR", "CR", 9.93, -84.08),
    ("PTY", "Panama City", "PA", 8.98, -79.52),
    ("SDQ", "Santo Domingo", "DO", 18.49, -69.93),
    ("KIN", "Kingston", "JM", 17.97, -76.79),
    ("SJU", "San Juan", "PR", 18.47, -66.11),
    ("BOG", "Bogota", "CO", 4.71, -74.07),
    ("MDE", "Medellin", "CO", 6.24, -75.58),
    ("UIO", "Quito", "EC", -0.18, -78.47),
    ("LIM", "Lima", "PE", -12.05, -77.04),
    ("CCS", "Caracas", "VE", 10.48, -66.90),
    ("GRU", "Sao Paulo", "BR", -23.55, -46.63),
    ("GIG", "Rio de Janeiro", "BR", -22.91, -43.17),
    ("BSB", "Brasilia", "BR", -15.79, -47.88),
    ("FOR", "Fortaleza", "BR", -3.73, -38.52),
    ("POA", "Porto Alegre", "BR", -30.03, -51.23),
    ("EZE", "Buenos Aires", "AR", -34.60, -58.38),
    ("COR", "Cordoba", "AR", -31.42, -64.18),
    ("SCL", "Santiago", "CL", -33.45, -70.67),
    ("MVD", "Montevideo", "UY", -34.90, -56.16),
    ("ASU", "Asuncion", "PY", -25.26, -57.58),
    ("LPB", "La Paz", "BO", -16.50, -68.15),
    # --- Europe -------------------------------------------------------------
    ("LHR", "London", "GB", 51.51, -0.13),
    ("MAN", "Manchester", "GB", 53.48, -2.24),
    ("EDI", "Edinburgh", "GB", 55.95, -3.19),
    ("DUB", "Dublin", "IE", 53.35, -6.26),
    ("AMS", "Amsterdam", "NL", 52.37, 4.90),
    ("BRU", "Brussels", "BE", 50.85, 4.35),
    ("LUX", "Luxembourg", "LU", 49.61, 6.13),
    ("CDG", "Paris", "FR", 48.86, 2.35),
    ("MRS", "Marseille", "FR", 43.30, 5.37),
    ("LYS", "Lyon", "FR", 45.76, 4.84),
    ("FRA", "Frankfurt", "DE", 50.11, 8.68),
    ("MUC", "Munich", "DE", 48.14, 11.58),
    ("TXL", "Berlin", "DE", 52.52, 13.41),
    ("HAM", "Hamburg", "DE", 53.55, 9.99),
    ("DUS", "Dusseldorf", "DE", 51.23, 6.78),
    ("ZRH", "Zurich", "CH", 47.38, 8.54),
    ("GVA", "Geneva", "CH", 46.20, 6.14),
    ("VIE", "Vienna", "AT", 48.21, 16.37),
    ("MAD", "Madrid", "ES", 40.42, -3.70),
    ("BCN", "Barcelona", "ES", 41.39, 2.17),
    ("LIS", "Lisbon", "PT", 38.72, -9.14),
    ("MXP", "Milan", "IT", 45.46, 9.19),
    ("FCO", "Rome", "IT", 41.90, 12.50),
    ("PMO", "Palermo", "IT", 38.12, 13.36),
    ("CPH", "Copenhagen", "DK", 55.68, 12.57),
    ("ARN", "Stockholm", "SE", 59.33, 18.07),
    ("GOT", "Gothenburg", "SE", 57.71, 11.97),
    ("OSL", "Oslo", "NO", 59.91, 10.75),
    ("HEL", "Helsinki", "FI", 60.17, 24.94),
    ("KEF", "Reykjavik", "IS", 64.15, -21.94),
    ("WAW", "Warsaw", "PL", 52.23, 21.01),
    ("KRK", "Krakow", "PL", 50.06, 19.94),
    ("PRG", "Prague", "CZ", 50.08, 14.44),
    ("BTS", "Bratislava", "SK", 48.15, 17.11),
    ("BUD", "Budapest", "HU", 47.50, 19.04),
    ("OTP", "Bucharest", "RO", 44.43, 26.10),
    ("SOF", "Sofia", "BG", 42.70, 23.32),
    ("ATH", "Athens", "GR", 37.98, 23.73),
    ("ZAG", "Zagreb", "HR", 45.81, 15.98),
    ("LJU", "Ljubljana", "SI", 46.06, 14.51),
    ("BEG", "Belgrade", "RS", 44.79, 20.45),
    ("TIA", "Tirana", "AL", 41.33, 19.82),
    ("SKP", "Skopje", "MK", 41.99, 21.43),
    ("TLL", "Tallinn", "EE", 59.44, 24.75),
    ("RIX", "Riga", "LV", 56.95, 24.11),
    ("VNO", "Vilnius", "LT", 54.69, 25.28),
    ("KBP", "Kyiv", "UA", 50.45, 30.52),
    ("MSQ", "Minsk", "BY", 53.90, 27.57),
    ("KIV", "Chisinau", "MD", 47.01, 28.86),
    ("MLA", "Valletta", "MT", 35.90, 14.51),
    # --- Russia --------------------------------------------------------------
    ("SVO", "Moscow", "RU", 55.76, 37.62),
    ("LED", "St. Petersburg", "RU", 59.93, 30.34),
    ("SVX", "Yekaterinburg", "RU", 56.84, 60.65),
    ("OVB", "Novosibirsk", "RU", 55.03, 82.92),
    ("VVO", "Vladivostok", "RU", 43.12, 131.89),
    # --- Middle East ---------------------------------------------------------
    ("IST", "Istanbul", "TR", 41.01, 28.98),
    ("ESB", "Ankara", "TR", 39.93, 32.86),
    ("TLV", "Tel Aviv", "IL", 32.09, 34.78),
    ("RUH", "Riyadh", "SA", 24.71, 46.68),
    ("JED", "Jeddah", "SA", 21.49, 39.19),
    ("DXB", "Dubai", "AE", 25.20, 55.27),
    ("AUH", "Abu Dhabi", "AE", 24.45, 54.38),
    ("DOH", "Doha", "QA", 25.29, 51.53),
    ("KWI", "Kuwait City", "KW", 29.38, 47.99),
    ("BAH", "Manama", "BH", 26.23, 50.59),
    ("MCT", "Muscat", "OM", 23.59, 58.41),
    ("AMM", "Amman", "JO", 31.96, 35.95),
    ("BEY", "Beirut", "LB", 33.89, 35.50),
    ("BGW", "Baghdad", "IQ", 33.31, 44.37),
    ("IKA", "Tehran", "IR", 35.69, 51.39),
    ("TBS", "Tbilisi", "GE", 41.72, 44.79),
    ("EVN", "Yerevan", "AM", 40.18, 44.51),
    ("GYD", "Baku", "AZ", 40.41, 49.87),
    ("LCA", "Nicosia", "CY", 35.17, 33.36),
    # --- Africa ----------------------------------------------------------------
    ("JNB", "Johannesburg", "ZA", -26.20, 28.05),
    ("CPT", "Cape Town", "ZA", -33.93, 18.42),
    ("DUR", "Durban", "ZA", -29.86, 31.03),
    ("CAI", "Cairo", "EG", 30.04, 31.24),
    ("LOS", "Lagos", "NG", 6.52, 3.38),
    ("ABV", "Abuja", "NG", 9.06, 7.49),
    ("NBO", "Nairobi", "KE", -1.29, 36.82),
    ("CMN", "Casablanca", "MA", 33.57, -7.59),
    ("TUN", "Tunis", "TN", 36.81, 10.18),
    ("ALG", "Algiers", "DZ", 36.75, 3.06),
    ("ACC", "Accra", "GH", 5.60, -0.19),
    ("DKR", "Dakar", "SN", 14.72, -17.47),
    ("ABJ", "Abidjan", "CI", 5.36, -4.01),
    ("ADD", "Addis Ababa", "ET", 9.03, 38.74),
    ("DAR", "Dar es Salaam", "TZ", -6.79, 39.21),
    ("EBB", "Kampala", "UG", 0.35, 32.58),
    ("LAD", "Luanda", "AO", -8.84, 13.23),
    ("MRU", "Port Louis", "MU", -20.16, 57.50),
    ("KGL", "Kigali", "RW", -1.94, 30.06),
    ("MPM", "Maputo", "MZ", -25.97, 32.57),
    # --- Asia ----------------------------------------------------------------
    ("PEK", "Beijing", "CN", 39.90, 116.41),
    ("PVG", "Shanghai", "CN", 31.23, 121.47),
    ("CAN", "Guangzhou", "CN", 23.13, 113.26),
    ("SZX", "Shenzhen", "CN", 22.54, 114.06),
    ("CTU", "Chengdu", "CN", 30.57, 104.07),
    ("HKG", "Hong Kong", "HK", 22.32, 114.17),
    ("TPE", "Taipei", "TW", 25.03, 121.57),
    ("NRT", "Tokyo", "JP", 35.68, 139.69),
    ("KIX", "Osaka", "JP", 34.69, 135.50),
    ("ICN", "Seoul", "KR", 37.57, 126.98),
    ("PUS", "Busan", "KR", 35.18, 129.08),
    ("SIN", "Singapore", "SG", 1.35, 103.82),
    ("KUL", "Kuala Lumpur", "MY", 3.14, 101.69),
    ("BKK", "Bangkok", "TH", 13.76, 100.50),
    ("SGN", "Ho Chi Minh City", "VN", 10.82, 106.63),
    ("HAN", "Hanoi", "VN", 21.03, 105.85),
    ("MNL", "Manila", "PH", 14.60, 120.98),
    ("CGK", "Jakarta", "ID", -6.21, 106.85),
    ("BOM", "Mumbai", "IN", 19.08, 72.88),
    ("DEL", "New Delhi", "IN", 28.61, 77.21),
    ("MAA", "Chennai", "IN", 13.08, 80.27),
    ("BLR", "Bangalore", "IN", 12.97, 77.59),
    ("CCU", "Kolkata", "IN", 22.57, 88.36),
    ("HYD", "Hyderabad", "IN", 17.38, 78.49),
    ("KHI", "Karachi", "PK", 24.86, 67.01),
    ("ISB", "Islamabad", "PK", 33.68, 73.05),
    ("DAC", "Dhaka", "BD", 23.81, 90.41),
    ("CMB", "Colombo", "LK", 6.93, 79.86),
    ("KTM", "Kathmandu", "NP", 27.72, 85.32),
    ("PNH", "Phnom Penh", "KH", 11.56, 104.92),
    ("RGN", "Yangon", "MM", 16.87, 96.20),
    ("ULN", "Ulaanbaatar", "MN", 47.89, 106.91),
    ("ALA", "Almaty", "KZ", 43.24, 76.95),
    ("TAS", "Tashkent", "UZ", 41.30, 69.24),
    # --- Oceania ---------------------------------------------------------------
    ("SYD", "Sydney", "AU", -33.87, 151.21),
    ("MEL", "Melbourne", "AU", -37.81, 144.96),
    ("BNE", "Brisbane", "AU", -27.47, 153.03),
    ("PER", "Perth", "AU", -31.95, 115.86),
    ("ADL", "Adelaide", "AU", -34.93, 138.60),
    ("AKL", "Auckland", "NZ", -36.85, 174.76),
    ("WLG", "Wellington", "NZ", -41.29, 174.78),
    ("NAN", "Nadi", "FJ", -17.76, 177.44),
)


@dataclass(frozen=True)
class City:
    """A metro area identified by its IATA code.

    The IATA code serves as the paper's city code (§3.1); ``location`` is the
    metro centroid used for distance and latency computations.
    """

    iata: str
    name: str
    country: str
    location: GeoPoint

    #: This city's row and column in the default atlas's distance table
    #: (:func:`city_km`).  :func:`load_default_atlas` sets it on that
    #: atlas's own objects; every other ``City`` keeps -1.  A class
    #: attribute, not a field, so equality, hashing and repr still see
    #: only the four fields above.
    index = -1

    @property
    def continent(self) -> Continent:
        return continent_of(self.country)

    @cached_property
    def area(self) -> Area:
        return area_of_country(self.country)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name} ({self.iata}, {self.country})"


@dataclass
class WorldAtlas:
    """An indexed collection of cities.

    Provides the lookups the rest of the simulator needs: by IATA code, by
    country, by continent/area, and nearest-city search ("closest airport
    within the same country", §3.1).
    """

    cities: tuple[City, ...]
    _by_iata: dict[str, City] = field(init=False, repr=False)
    _by_country: dict[str, list[City]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._by_iata = {}
        self._by_country = {}
        for city in self.cities:
            if city.iata in self._by_iata:
                raise ValueError(f"duplicate IATA code in atlas: {city.iata}")
            self._by_iata[city.iata] = city
            self._by_country.setdefault(city.country, []).append(city)

    def __len__(self) -> int:
        return len(self.cities)

    def __iter__(self):
        return iter(self.cities)

    def __contains__(self, iata: str) -> bool:
        return iata in self._by_iata

    def get(self, iata: str) -> City:
        """City by IATA code; raises KeyError for unknown codes."""
        try:
            return self._by_iata[iata]
        except KeyError:
            raise KeyError(f"unknown IATA code: {iata!r}") from None

    def in_country(self, country: str) -> list[City]:
        """All atlas cities in a country (possibly empty)."""
        return list(self._by_country.get(country, []))

    def in_area(self, area: Area) -> list[City]:
        """All atlas cities in one of the paper's probe areas."""
        return [c for c in self.cities if c.area is area]

    def countries(self) -> list[str]:
        """All countries with at least one atlas city, in stable order."""
        return list(self._by_country)

    def nearest(self, point: GeoPoint, country: str | None = None) -> City:
        """The atlas city nearest to ``point``.

        When ``country`` is given, the search is restricted to that country,
        matching the paper's "closest airport within the same country" rule
        for probe city codes.  Falls back to the global nearest city if the
        country has no atlas city.
        """
        candidates = self._by_country.get(country, []) if country else []
        if not candidates:
            candidates = list(self.cities)
        return min(candidates, key=lambda c: c.location.distance_km(point))


_DEFAULT_ATLAS: WorldAtlas | None = None

#: The default atlas's distance table: row ``i``, when filled, holds
#: ``great_circle_km(cities[i].location, cities[j].location)`` at column
#: ``j``.  200 rows of 200 doubles is 320,000 bytes of distances.
_KM_ROWS: list[array | None] = [None] * len(_CITY_ROWS)


def load_default_atlas() -> WorldAtlas:
    """The shared embedded atlas instance (built once, cached)."""
    global _DEFAULT_ATLAS
    if _DEFAULT_ATLAS is None:
        atlas = WorldAtlas(
            cities=tuple(
                City(iata=iata, name=name, country=country, location=GeoPoint(lat, lon))
                for iata, name, country, lat, lon in _CITY_ROWS
            )
        )
        for index, city in enumerate(atlas.cities):
            object.__setattr__(city, "index", index)
        _DEFAULT_ATLAS = atlas
    return _DEFAULT_ATLAS


def city_km(a: City, b: City) -> float:
    """``great_circle_km(a.location, b.location)``.

    Read from the distance table when both cities are the default
    atlas's own objects, so every value is the float a direct call
    returns; computed directly for any other ``City``.
    """
    i = a.index
    j = b.index
    if i < 0 or j < 0:
        return great_circle_km(a.location, b.location)
    row = _KM_ROWS[i]
    if row is None:
        cities = load_default_atlas().cities
        origin = cities[i].location
        row = _KM_ROWS[i] = array(
            "d", [great_circle_km(origin, city.location) for city in cities]
        )
    return row[j]
