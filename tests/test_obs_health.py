"""Tests for repro.obs.health: domain gauges on instrumented runs.

Uses the shared SMALL world fixture.  The claim gauges are scored from
stub results with every experiment's ``run`` patched to fail, which
shows that health never runs an experiment.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.experiments.base import TextResult, experiment_name
from repro.experiments.claims import ALL_CLAIMS
from repro.experiments.runner import ALL_EXPERIMENTS
from repro.obs.health import (
    HEALTH_PREFIX,
    catchment_health,
    collect_health,
    dns_health,
    health_gauges,
    record_health,
    render_health,
    routing_health,
)
from repro.obs.manifest import from_recorder


@pytest.fixture(scope="module")
def gauges(small_world):
    return collect_health(small_world)


class TestCollect:
    def test_all_gauges_carry_the_health_prefix(self, gauges):
        assert gauges
        assert all(name.startswith(HEALTH_PREFIX) for name in gauges)

    def test_routing_cache_gauges(self, small_world):
        health = routing_health(small_world)
        assert 0.0 <= health["health.routing.cache_hit_rate"] <= 1.0
        assert (health["health.routing.cache_lookups"]
                >= health["health.routing.tables_computed"])
        # A built world computed at least one table per deployment.
        assert health["health.routing.tables_computed"] >= 1

    def test_catchments_have_live_sites_per_region(self, small_world):
        health = catchment_health(small_world)
        regional = {k: v for k, v in health.items() if ".sites" in k}
        assert len(regional) >= 10  # im6 (6) + eg3 (3) + eg4 (4) + ns
        assert all(sites >= 1.0 for sites in regional.values()), (
            "a region with zero serving sites means a collapsed catchment"
        )

    def test_dns_mapping_fractions_sum_to_one(self, small_world):
        health = dns_health(small_world)
        assert health["health.dns.groups_classified"] >= 1
        fractions = [
            health["health.dns.mapping.efficient"],
            health["health.dns.mapping.suboptimal"],
            health["health.dns.mapping.wrong_region"],
        ]
        assert all(0.0 <= f <= 1.0 for f in fractions)
        assert sum(fractions) == pytest.approx(1.0)

    def test_collect_is_sorted_and_skips_claims_when_asked(self, gauges):
        assert list(gauges) == sorted(gauges)
        assert not any(name.startswith("health.claims.") for name in gauges)


class TestClaimGauges:
    @pytest.fixture
    def runs(self, monkeypatch):
        """Patch every experiment's ``run`` to fail; returns the calls."""
        calls: list[str] = []
        for module, _ in ALL_EXPERIMENTS:
            def refuse(world, _name=experiment_name(module)):
                calls.append(_name)
                raise RuntimeError(f"health ran experiment {_name}")
            monkeypatch.setattr(module, "run", refuse)
        return calls

    @staticmethod
    def _done(drop: str | None = None) -> dict[str, TextResult]:
        return {
            name: TextResult(name, "stub")
            for name in (experiment_name(m) for m, _ in ALL_EXPERIMENTS)
            if name != drop
        }

    def test_complete_results_score_every_claim(self, small_world, runs):
        gauges = collect_health(small_world, self._done())
        assert gauges["health.claims.total"] == len(ALL_CLAIMS) == 18
        assert runs == []

    def test_partial_or_no_results_record_no_claim_gauges(self, small_world,
                                                          runs):
        for done in (self._done(drop="fig6"), None):
            gauges = collect_health(small_world, done)
            assert gauges
            assert not any(n.startswith("health.claims.") for n in gauges)
        assert runs == []


class TestRecord:
    def test_record_health_sets_gauges_under_span(self, small_world):
        obs.uninstall()
        with obs.recording("health-run") as rec:
            recorded = record_health(small_world)
        span = rec.root.find("obs.health")
        assert span is not None
        assert span.gauges == recorded
        assert recorded["health.routing.cache_hit_rate"] >= 0.0

    def test_health_gauges_reads_back_from_manifest(self, small_world):
        obs.uninstall()
        with obs.recording("health-run") as rec:
            with obs.span("unrelated"):
                obs.gauge.set("experiment.custom", 1.0)
            recorded = record_health(small_world)
        manifest = from_recorder(rec)
        read_back = health_gauges(manifest)
        assert read_back == recorded
        assert "experiment.custom" not in read_back


class TestRender:
    def test_render_empty_hints_at_tracing(self):
        assert "repro run --trace" in render_health({})

    def test_render_leads_with_claims_and_cache_rate(self):
        text = render_health({
            "health.claims.failed": 0.0,
            "health.claims.passed": 18.0,
            "health.claims.total": 18.0,
            "health.routing.cache_hit_rate": 0.925,
        })
        lines = text.splitlines()
        assert lines[0] == "claims    18/18 hold  [ok]"
        assert lines[1] == "routing   cache hit rate 92.5%"
        assert "  health.claims.passed" in text

    def test_render_flags_failed_claims(self):
        text = render_health({
            "health.claims.passed": 17.0,
            "health.claims.total": 18.0,
        })
        assert "[FAIL]" in text

    def test_render_real_gauges(self, gauges):
        text = render_health(gauges)
        assert "cache hit rate" in text
        assert "health.dns.mapping.efficient" in text
