"""Unit tests for the world atlas and probe-area classification."""

from array import array

import pytest

from repro.geo import atlas as atlas_module
from repro.geo.areas import AREAS, Area, area_of_country
from repro.geo.atlas import City, WorldAtlas, city_km, load_default_atlas
from repro.geo.coords import GeoPoint, great_circle_km
from repro.geo.countries import Continent, continent_of, is_country


@pytest.fixture(scope="module")
def atlas() -> WorldAtlas:
    return load_default_atlas()


class TestAtlasIntegrity:
    def test_has_substantial_coverage(self, atlas):
        assert len(atlas) >= 180

    def test_all_iata_codes_unique_and_three_letters(self, atlas):
        codes = [c.iata for c in atlas]
        assert len(set(codes)) == len(codes)
        assert all(len(code) == 3 and code.isupper() for code in codes)

    def test_all_countries_known(self, atlas):
        for city in atlas:
            assert is_country(city.country), city

    def test_every_area_represented(self, atlas):
        for area in AREAS:
            assert atlas.in_area(area), f"no atlas city in {area}"

    def test_duplicate_iata_rejected(self, atlas):
        city = atlas.get("FRA")
        with pytest.raises(ValueError):
            WorldAtlas(cities=(city, city))

    def test_get_unknown_raises_keyerror(self, atlas):
        with pytest.raises(KeyError):
            atlas.get("ZZZ")

    def test_contains(self, atlas):
        assert "AMS" in atlas
        assert "ZZZ" not in atlas


class TestAtlasLookups:
    def test_in_country(self, atlas):
        germany = atlas.in_country("DE")
        assert {c.iata for c in germany} >= {"FRA", "MUC", "TXL"}
        assert atlas.in_country("XX") == []

    def test_nearest_unrestricted(self, atlas):
        # A point in the Ruhr area should land on Dusseldorf.
        got = atlas.nearest(GeoPoint(51.4, 6.9))
        assert got.country == "DE"

    def test_nearest_same_country_rule(self, atlas):
        # A probe in Strasbourg (France, near the German border) must map
        # to a French airport under the paper's same-country rule.
        strasbourg = GeoPoint(48.58, 7.75)
        got = atlas.nearest(strasbourg, country="FR")
        assert got.country == "FR"

    def test_nearest_falls_back_globally_for_uncovered_country(self, atlas):
        got = atlas.nearest(GeoPoint(0.0, 0.0), country="XX")
        assert isinstance(got, City)

    def test_city_area_and_continent(self, atlas):
        sin = atlas.get("SIN")
        assert sin.continent is Continent.ASIA
        assert sin.area is Area.APAC


class TestCityDistanceTable:
    """``city_km`` reads a table of the default atlas's city pairs, and
    every value in it is the float a direct ``great_circle_km`` gives."""

    def test_every_ordered_pair_equals_the_direct_distance(self, atlas):
        cities = atlas.cities
        assert len(cities) ** 2 == 40_000
        assert [city.index for city in cities] == list(range(len(cities)))
        differ = [
            (a.iata, b.iata)
            for a in cities
            for b in cities
            if city_km(a, b) != great_circle_km(a.location, b.location)
        ]
        assert differ == []
        rows = atlas_module._KM_ROWS
        assert all(isinstance(row, array) and row.typecode == "d"
                   and len(row) == len(cities) for row in rows)
        assert sum(row.itemsize * len(row) for row in rows) <= 320_000
        assert all(
            rows[a.index][b.index] == great_circle_km(a.location, b.location)
            for a in cities
            for b in cities
        )

    def test_other_cities_get_the_direct_distance(self, atlas, monkeypatch):
        fra = atlas.get("FRA")
        # Equal to an atlas city by value, but not one of its objects.
        twin = City(fra.iata, fra.name, fra.country, fra.location)
        moved = City("FRA", "Frankfurt at sea", "DE", GeoPoint(0.0, 0.0))
        assert twin == fra and twin.index == moved.index == -1
        monkeypatch.setattr(atlas_module, "_KM_ROWS",
                            [None] * len(atlas_module._KM_ROWS))
        nrt = atlas.get("NRT")
        for city in (twin, moved):
            assert city_km(city, nrt) == great_circle_km(city.location,
                                                         nrt.location)
            assert city_km(nrt, city) == great_circle_km(nrt.location,
                                                         city.location)
        assert city_km(moved, fra) > 5_000
        # No row was filled for a city outside the table.
        assert atlas_module._KM_ROWS == [None] * len(atlas)

    def test_area_is_computed_once_per_city(self, atlas, monkeypatch):
        calls = []

        def counting(country):
            calls.append(country)
            return area_of_country(country)

        monkeypatch.setattr(atlas_module, "area_of_country", counting)
        city = City("ZZA", "Nowhere", "DE", GeoPoint(50.0, 8.0))
        assert [city.area for _ in range(3)] == [Area.EMEA] * 3
        assert calls == ["DE"]


class TestAreaClassification:
    @pytest.mark.parametrize(
        "country,area",
        [
            ("US", Area.NA),
            ("CA", Area.NA),
            ("MX", Area.LATAM),
            ("PA", Area.LATAM),
            ("BR", Area.LATAM),
            ("DE", Area.EMEA),
            ("RU", Area.EMEA),  # the paper counts Russian probes in EMEA
            ("ZA", Area.EMEA),
            ("TR", Area.EMEA),  # Middle East -> EMEA
            ("AE", Area.EMEA),
            ("CN", Area.APAC),
            ("AU", Area.APAC),
            ("IN", Area.APAC),
        ],
    )
    def test_paper_area_rules(self, country, area):
        assert area_of_country(country) is area

    def test_unknown_country_raises(self):
        with pytest.raises(KeyError):
            area_of_country("XX")

    def test_continent_of_unknown_raises(self):
        with pytest.raises(KeyError):
            continent_of("XX")
