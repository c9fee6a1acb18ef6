"""Country metadata: ISO-3166 alpha-2 codes, names, and continents.

The simulator needs country-level knowledge in three places:

- DNS geo-mapping policies operate at country (or continent) granularity
  (§4.3, §6.2 — Amazon Route 53 supports both levels);
- probe areas (EMEA / NA / LatAm / APAC) are derived from probe countries;
- the Appendix-B "country-level IPGeo" technique resolves a p-hop when all
  geolocation databases agree on its country and the CDN lists one site there.

The table below covers every country that hosts a city in the embedded world
atlas plus the neighbouring countries used by the probe population generator.
It is intentionally a plain dictionary: deterministic, dependency-free, and
easy to audit.
"""

from __future__ import annotations

import enum
from typing import Iterator


class Continent(enum.Enum):
    """Standard continent codes used by geolocation databases."""

    AFRICA = "AF"
    ASIA = "AS"
    EUROPE = "EU"
    NORTH_AMERICA = "NA"
    OCEANIA = "OC"
    SOUTH_AMERICA = "SA"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: All continents, in stable order.
CONTINENTS: tuple[Continent, ...] = tuple(Continent)

# code -> (name, continent)
_COUNTRIES: dict[str, tuple[str, Continent]] = {
    # --- North America ------------------------------------------------
    "US": ("United States", Continent.NORTH_AMERICA),
    "CA": ("Canada", Continent.NORTH_AMERICA),
    "MX": ("Mexico", Continent.NORTH_AMERICA),
    "GT": ("Guatemala", Continent.NORTH_AMERICA),
    "HN": ("Honduras", Continent.NORTH_AMERICA),
    "SV": ("El Salvador", Continent.NORTH_AMERICA),
    "NI": ("Nicaragua", Continent.NORTH_AMERICA),
    "CR": ("Costa Rica", Continent.NORTH_AMERICA),
    "PA": ("Panama", Continent.NORTH_AMERICA),
    "BZ": ("Belize", Continent.NORTH_AMERICA),
    "CU": ("Cuba", Continent.NORTH_AMERICA),
    "DO": ("Dominican Republic", Continent.NORTH_AMERICA),
    "JM": ("Jamaica", Continent.NORTH_AMERICA),
    "HT": ("Haiti", Continent.NORTH_AMERICA),
    "PR": ("Puerto Rico", Continent.NORTH_AMERICA),
    "TT": ("Trinidad and Tobago", Continent.NORTH_AMERICA),
    "BS": ("Bahamas", Continent.NORTH_AMERICA),
    # --- South America ------------------------------------------------
    "BR": ("Brazil", Continent.SOUTH_AMERICA),
    "AR": ("Argentina", Continent.SOUTH_AMERICA),
    "CL": ("Chile", Continent.SOUTH_AMERICA),
    "CO": ("Colombia", Continent.SOUTH_AMERICA),
    "PE": ("Peru", Continent.SOUTH_AMERICA),
    "VE": ("Venezuela", Continent.SOUTH_AMERICA),
    "EC": ("Ecuador", Continent.SOUTH_AMERICA),
    "UY": ("Uruguay", Continent.SOUTH_AMERICA),
    "PY": ("Paraguay", Continent.SOUTH_AMERICA),
    "BO": ("Bolivia", Continent.SOUTH_AMERICA),
    "GY": ("Guyana", Continent.SOUTH_AMERICA),
    "SR": ("Suriname", Continent.SOUTH_AMERICA),
    # --- Europe ---------------------------------------------------------
    "GB": ("United Kingdom", Continent.EUROPE),
    "DE": ("Germany", Continent.EUROPE),
    "FR": ("France", Continent.EUROPE),
    "NL": ("Netherlands", Continent.EUROPE),
    "BE": ("Belgium", Continent.EUROPE),
    "LU": ("Luxembourg", Continent.EUROPE),
    "IE": ("Ireland", Continent.EUROPE),
    "ES": ("Spain", Continent.EUROPE),
    "PT": ("Portugal", Continent.EUROPE),
    "IT": ("Italy", Continent.EUROPE),
    "CH": ("Switzerland", Continent.EUROPE),
    "AT": ("Austria", Continent.EUROPE),
    "DK": ("Denmark", Continent.EUROPE),
    "SE": ("Sweden", Continent.EUROPE),
    "NO": ("Norway", Continent.EUROPE),
    "FI": ("Finland", Continent.EUROPE),
    "IS": ("Iceland", Continent.EUROPE),
    "PL": ("Poland", Continent.EUROPE),
    "CZ": ("Czechia", Continent.EUROPE),
    "SK": ("Slovakia", Continent.EUROPE),
    "HU": ("Hungary", Continent.EUROPE),
    "RO": ("Romania", Continent.EUROPE),
    "BG": ("Bulgaria", Continent.EUROPE),
    "GR": ("Greece", Continent.EUROPE),
    "HR": ("Croatia", Continent.EUROPE),
    "SI": ("Slovenia", Continent.EUROPE),
    "RS": ("Serbia", Continent.EUROPE),
    "BA": ("Bosnia and Herzegovina", Continent.EUROPE),
    "AL": ("Albania", Continent.EUROPE),
    "MK": ("North Macedonia", Continent.EUROPE),
    "EE": ("Estonia", Continent.EUROPE),
    "LV": ("Latvia", Continent.EUROPE),
    "LT": ("Lithuania", Continent.EUROPE),
    "UA": ("Ukraine", Continent.EUROPE),
    "BY": ("Belarus", Continent.EUROPE),
    "MD": ("Moldova", Continent.EUROPE),
    "RU": ("Russia", Continent.EUROPE),
    "MT": ("Malta", Continent.EUROPE),
    "CY": ("Cyprus", Continent.EUROPE),
    # --- Middle East (continent AS, area EMEA) ---------------------------
    "TR": ("Turkey", Continent.ASIA),
    "IL": ("Israel", Continent.ASIA),
    "SA": ("Saudi Arabia", Continent.ASIA),
    "AE": ("United Arab Emirates", Continent.ASIA),
    "QA": ("Qatar", Continent.ASIA),
    "KW": ("Kuwait", Continent.ASIA),
    "BH": ("Bahrain", Continent.ASIA),
    "OM": ("Oman", Continent.ASIA),
    "JO": ("Jordan", Continent.ASIA),
    "LB": ("Lebanon", Continent.ASIA),
    "IQ": ("Iraq", Continent.ASIA),
    "IR": ("Iran", Continent.ASIA),
    "GE": ("Georgia", Continent.ASIA),
    "AM": ("Armenia", Continent.ASIA),
    "AZ": ("Azerbaijan", Continent.ASIA),
    # --- Africa ----------------------------------------------------------
    "ZA": ("South Africa", Continent.AFRICA),
    "EG": ("Egypt", Continent.AFRICA),
    "NG": ("Nigeria", Continent.AFRICA),
    "KE": ("Kenya", Continent.AFRICA),
    "MA": ("Morocco", Continent.AFRICA),
    "TN": ("Tunisia", Continent.AFRICA),
    "DZ": ("Algeria", Continent.AFRICA),
    "GH": ("Ghana", Continent.AFRICA),
    "SN": ("Senegal", Continent.AFRICA),
    "CI": ("Ivory Coast", Continent.AFRICA),
    "ET": ("Ethiopia", Continent.AFRICA),
    "TZ": ("Tanzania", Continent.AFRICA),
    "UG": ("Uganda", Continent.AFRICA),
    "AO": ("Angola", Continent.AFRICA),
    "MU": ("Mauritius", Continent.AFRICA),
    "ZW": ("Zimbabwe", Continent.AFRICA),
    "MZ": ("Mozambique", Continent.AFRICA),
    "CM": ("Cameroon", Continent.AFRICA),
    "RW": ("Rwanda", Continent.AFRICA),
    # --- Asia-Pacific ------------------------------------------------------
    "CN": ("China", Continent.ASIA),
    "JP": ("Japan", Continent.ASIA),
    "KR": ("South Korea", Continent.ASIA),
    "TW": ("Taiwan", Continent.ASIA),
    "HK": ("Hong Kong", Continent.ASIA),
    "MO": ("Macao", Continent.ASIA),
    "SG": ("Singapore", Continent.ASIA),
    "MY": ("Malaysia", Continent.ASIA),
    "TH": ("Thailand", Continent.ASIA),
    "VN": ("Vietnam", Continent.ASIA),
    "PH": ("Philippines", Continent.ASIA),
    "ID": ("Indonesia", Continent.ASIA),
    "IN": ("India", Continent.ASIA),
    "PK": ("Pakistan", Continent.ASIA),
    "BD": ("Bangladesh", Continent.ASIA),
    "LK": ("Sri Lanka", Continent.ASIA),
    "NP": ("Nepal", Continent.ASIA),
    "KH": ("Cambodia", Continent.ASIA),
    "MM": ("Myanmar", Continent.ASIA),
    "LA": ("Laos", Continent.ASIA),
    "MN": ("Mongolia", Continent.ASIA),
    "KZ": ("Kazakhstan", Continent.ASIA),
    "UZ": ("Uzbekistan", Continent.ASIA),
    "KG": ("Kyrgyzstan", Continent.ASIA),
    "BN": ("Brunei", Continent.ASIA),
    # --- Oceania -----------------------------------------------------------
    "AU": ("Australia", Continent.OCEANIA),
    "NZ": ("New Zealand", Continent.OCEANIA),
    "FJ": ("Fiji", Continent.OCEANIA),
    "PG": ("Papua New Guinea", Continent.OCEANIA),
    "NC": ("New Caledonia", Continent.OCEANIA),
}

#: Middle-East countries, grouped into the EMEA probe area by the paper.
MIDDLE_EAST: frozenset[str] = frozenset(
    {
        "TR", "IL", "SA", "AE", "QA", "KW", "BH", "OM", "JO", "LB", "IQ",
        "IR", "GE", "AM", "AZ", "CY",
    }
)


def is_country(code: str) -> bool:
    """Whether ``code`` is a known ISO alpha-2 country code."""
    return code in _COUNTRIES


def country_name(code: str) -> str:
    """Human-readable name of a country code.

    Raises :class:`KeyError` with a helpful message for unknown codes so a
    typo in an experiment configuration fails loudly.
    """
    try:
        return _COUNTRIES[code][0]
    except KeyError:
        raise KeyError(f"unknown country code: {code!r}") from None


def continent_of(code: str) -> Continent:
    """The continent a country belongs to."""
    try:
        return _COUNTRIES[code][1]
    except KeyError:
        raise KeyError(f"unknown country code: {code!r}") from None


def iter_countries() -> Iterator[str]:
    """Iterate over all known country codes, in stable definition order."""
    return iter(_COUNTRIES)
