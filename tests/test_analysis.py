"""Tests for CDFs, mapping classification, comparison, and case studies."""

import pytest
from hypothesis import example, given, strategies as st

from repro.analysis.cdf import EmpiricalCDF, percentile
from repro.analysis.cases import (
    CaseType,
    RelationshipDatabase,
    classify_divergence,
)
from repro.analysis.compare import (
    GroupComparison,
    ProbeObservation,
    RegionalGlobalComparison,
)
from repro.analysis.mapping import MappingClass, classify_mapping
from repro.analysis.report import format_pct, render_table
from repro.geo.areas import Area
from repro.geo.atlas import load_default_atlas

ATLAS = load_default_atlas()

floats_list = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    min_size=1,
    max_size=60,
)


class TestPercentile:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_invalid_p_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 0)
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_known_values(self):
        data = [1.0, 2.0, 3.0, 4.0]
        assert percentile(data, 50) == pytest.approx(2.5)
        assert percentile(data, 100) == 4.0
        assert percentile(data, 25) == pytest.approx(1.75)

    def test_matches_numpy_convention(self):
        import numpy as np

        data = [3.0, 1.0, 7.0, 2.0, 9.0, 4.0]
        for p in (10, 50, 80, 90, 95, 99):
            assert percentile(data, p) == pytest.approx(
                float(np.percentile(data, p))
            )

    @given(floats_list, st.floats(min_value=1, max_value=100))
    def test_bounds_property(self, values, p):
        got = percentile(values, p)
        span = max(abs(min(values)), abs(max(values)), 1.0)
        tol = 1e-12 * span  # linear interpolation can wobble by an ulp
        assert min(values) - tol <= got <= max(values) + tol

    @given(floats_list)
    @example([5e-324, 5e-324])
    def test_monotone_in_p_property(self, values):
        ps = [10, 30, 50, 70, 90]
        results = [percentile(values, p) for p in ps]
        for lo, hi in zip(results, results[1:]):
            # Tolerate 1-ulp interpolation noise.
            assert lo <= hi or abs(lo - hi) <= 1e-12 * max(abs(lo), abs(hi))


class TestEmpiricalCDF:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalCDF.of([])

    def test_fraction_at(self):
        cdf = EmpiricalCDF.of([1.0, 2.0, 3.0, 4.0])
        assert cdf.fraction_at(0.5) == 0.0
        assert cdf.fraction_at(2.0) == 0.5
        assert cdf.fraction_at(10.0) == 1.0
        assert cdf.fraction_above(2.0) == 0.5

    def test_series_is_monotone_and_complete(self):
        cdf = EmpiricalCDF.of(list(range(1000)))
        series = cdf.series(max_points=50)
        xs = [x for x, _ in series]
        ys = [y for _, y in series]
        assert xs == sorted(xs)
        assert ys == sorted(ys)
        assert ys[-1] == 1.0

    def test_summary_stats(self):
        cdf = EmpiricalCDF.of([2.0, 4.0, 6.0])
        assert cdf.median == 4.0
        assert cdf.mean == 4.0
        assert len(cdf) == 3


class TestMappingClassification:
    def _group(self, small_world, country=None):
        for g in small_world.groups:
            if country is None or g.country == country:
                return g
        pytest.skip(f"no group in {country}")

    def test_efficient_when_received_is_best(self, small_world):
        im6 = small_world.imperva.im6
        group = self._group(small_world, "US")
        addrs = im6.regional_addresses()
        received = im6.address_of_region("US")
        rtts = {a: 50.0 for a in addrs}
        rtts[received] = 20.0
        record = classify_mapping(im6, group, received, rtts)
        assert record.outcome is MappingClass.EFFICIENT
        assert record.delta_rtt_ms == 0.0

    def test_region_suboptimal(self, small_world):
        im6 = small_world.imperva.im6
        group = self._group(small_world, "US")
        received = im6.address_of_region("US")  # intended region...
        rtts = {a: 100.0 for a in im6.regional_addresses()}
        rtts[received] = 40.0
        rtts[im6.address_of_region("CA")] = 10.0  # ...but CA is 30ms faster
        record = classify_mapping(im6, group, received, rtts)
        assert record.outcome is MappingClass.REGION_SUBOPTIMAL
        assert record.intended_region == "US"

    def test_wrong_region(self, small_world):
        im6 = small_world.imperva.im6
        group = self._group(small_world, "US")
        received = im6.address_of_region("APAC")  # not the intent for US
        rtts = {a: 100.0 for a in im6.regional_addresses()}
        rtts[received] = 90.0
        rtts[im6.address_of_region("US")] = 10.0
        record = classify_mapping(im6, group, received, rtts)
        assert record.outcome is MappingClass.WRONG_REGION

    def test_wrong_region_but_fast_counts_efficient(self, small_world):
        """The paper's taxonomy is performance-first: a 'wrong' region
        within 5 ms of the best is still efficient."""
        im6 = small_world.imperva.im6
        group = self._group(small_world, "US")
        received = im6.address_of_region("CA")
        rtts = {a: 100.0 for a in im6.regional_addresses()}
        rtts[received] = 11.0
        rtts[im6.address_of_region("US")] = 10.0
        record = classify_mapping(im6, group, received, rtts)
        assert record.outcome is MappingClass.EFFICIENT

    def test_unmeasured_received_addr_gives_none(self, small_world):
        im6 = small_world.imperva.im6
        group = self._group(small_world)
        assert classify_mapping(im6, group,
                                im6.address_of_region("US"), {}) is None


def _city(iata):
    return ATLAS.get(iata)


def _obs(pid, rtt, site, peer=("as", 1)):
    return ProbeObservation(probe_id=pid, rtt_ms=rtt,
                            site=_city(site) if site else None, peer_owner=peer)


class TestComparisonPipeline:
    def _groups(self, small_world, n=6):
        return small_world.groups[:n]

    def test_build_filters_invalid_observations(self, small_world):
        groups = self._groups(small_world)
        regional = {}
        global_ = {}
        for g in groups:
            for p in g.probes:
                regional[p.probe_id] = _obs(p.probe_id, 10.0, "FRA")
                global_[p.probe_id] = _obs(p.probe_id, None, None, None)
        cmp_ = RegionalGlobalComparison.build(groups, regional, global_, {"FRA"})
        assert cmp_.groups == []
        assert cmp_.filter_stats.retained_groups == 0
        assert cmp_.filter_stats.dropped_no_phop == len(groups)

    def test_build_filters_non_overlapping_sites(self, small_world):
        groups = self._groups(small_world)
        regional = {}
        global_ = {}
        for g in groups:
            for p in g.probes:
                regional[p.probe_id] = _obs(p.probe_id, 10.0, "FRA")
                global_[p.probe_id] = _obs(p.probe_id, 12.0, "AMS")
        # Only FRA overlaps: global observations at AMS are dropped.
        cmp_ = RegionalGlobalComparison.build(groups, regional, global_, {"FRA"})
        assert cmp_.filter_stats.retained_groups == 0
        assert cmp_.filter_stats.dropped_site_overlap == len(groups)

    def test_build_filters_uncommon_peers(self, small_world):
        groups = self._groups(small_world)
        regional = {}
        global_ = {}
        for g in groups:
            for p in g.probes:
                regional[p.probe_id] = _obs(p.probe_id, 10.0, "FRA", ("as", 1))
                global_[p.probe_id] = _obs(p.probe_id, 12.0, "FRA", ("as", 2))
        cmp_ = RegionalGlobalComparison.build(groups, regional, global_, {"FRA"})
        assert cmp_.filter_stats.retained_groups == 0
        assert cmp_.filter_stats.dropped_peer_overlap == len(groups)

    def test_retained_comparison_statistics(self, small_world):
        groups = self._groups(small_world)
        regional = {}
        global_ = {}
        for g in groups:
            for p in g.probes:
                regional[p.probe_id] = _obs(p.probe_id, 10.0, "FRA")
                global_[p.probe_id] = _obs(p.probe_id, 40.0, "SIN")
        # Anchor observations (probes outside the analysed groups) ensure
        # both sites carry the common peer in both networks, as every
        # overlapping site does in a real measurement campaign.
        regional[-1] = _obs(-1, 30.0, "SIN")
        global_[-2] = _obs(-2, 30.0, "FRA")
        overlapping = {"FRA", "SIN"}
        cmp_ = RegionalGlobalComparison.build(groups, regional, global_, overlapping)
        assert cmp_.filter_stats.retained_groups == len(groups)
        for row in cmp_.groups:
            assert row.performance == "better"
            assert row.delta_rtt_ms == pytest.approx(-30.0)

    def test_group_comparison_classifications(self):
        base = dict(
            group_key=("FRA", 1), area=Area.EMEA,
            dist_regional_km=100.0, dist_global_km=500.0,
            site_regional=_city("FRA"), site_global=_city("AMS"),
        )
        better = GroupComparison(rtt_regional_ms=10, rtt_global_ms=40, **base)
        assert better.performance == "better"
        assert better.site_relation == "closer"
        worse = GroupComparison(rtt_regional_ms=40, rtt_global_ms=10, **base)
        assert worse.performance == "worse"
        same_site = GroupComparison(
            rtt_regional_ms=10, rtt_global_ms=11,
            group_key=("FRA", 1), area=Area.EMEA,
            dist_regional_km=100.0, dist_global_km=100.0,
            site_regional=_city("FRA"), site_global=_city("FRA"),
        )
        assert same_site.performance == "similar"
        assert same_site.site_relation == "same"


class TestCaseClassifier:
    def _db(self):
        # 1=client, 2=pivot, 3=distant-cone customer, 4=peer toward near
        # site, 9=CDN.
        return RelationshipDatabase(relations={
            (2, 3): {"provider"}, (3, 2): {"customer"},
            (2, 4): {"peer"}, (4, 2): {"peer"},
            (2, 9): {"rs-peer"}, (9, 2): {"rs-peer"},
            (1, 2): {"customer"}, (2, 1): {"provider"},
        })

    def test_relationship_override_detected(self):
        db = self._db()
        global_path = [1, 2, 3, 9]  # pivot 2 descends into customer 3
        regional_path = [1, 2, 4, 9]
        assert classify_divergence(db, global_path, regional_path) is \
            CaseType.RELATIONSHIP_OVERRIDE

    def test_peering_type_override_detected(self):
        db = RelationshipDatabase(relations={
            (1, 2): {"peer"}, (2, 1): {"peer"},
            (1, 9): {"rs-peer"}, (9, 1): {"rs-peer"},
            (2, 3): {"provider"},
        })
        global_path = [1, 2, 3, 9]
        regional_path = [1, 9]
        assert classify_divergence(db, global_path, regional_path) is \
            CaseType.PEERING_TYPE_OVERRIDE

    def test_gap_yields_unknown(self):
        db = self._db()
        assert classify_divergence(db, [1, None, 3, 9], [1, 2, 4, 9]) is \
            CaseType.UNKNOWN

    def test_identical_paths_unknown(self):
        db = self._db()
        assert classify_divergence(db, [1, 2, 9], [1, 2, 9]) is CaseType.UNKNOWN

    def test_unpublished_feed_blocks_peering_attribution(self):
        db = RelationshipDatabase(relations={
            (1, 2): {"peer"}, (2, 1): {"peer"},
            (1, 9): {"peer-unknown"}, (9, 1): {"peer-unknown"},
        })
        assert classify_divergence(db, [1, 2, 9], [1, 9]) is CaseType.UNKNOWN


class TestReport:
    def test_render_table_alignment(self):
        text = render_table(["A", "Blong"], [[1, 2.5], ["xx", "y"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "A" in lines[1] and "Blong" in lines[1]
        assert len(lines) == 5

    def test_render_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            render_table(["A"], [[1, 2]])

    def test_format_pct(self):
        assert format_pct(0.123) == "12.3%"
