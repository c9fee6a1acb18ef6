"""Tests for repro.explain: decision provenance, journeys, catchment diffs.

Four groups:

- **recorder** — install/uninstall semantics, nesting, the disabled
  no-op path, and event bounding;
- **capture** — each hook (routing engine, forwarder, DNS resolver)
  records faithful trails, and records *nothing* when disabled;
- **journeys and diffs** — end-to-end stitching on the shared small
  world, including the acceptance-critical §5.4 diff (at least one flip
  attributed to prefer-customer) and the cross-check against the
  analyst-grade ``sec54`` experiment;
- **surfacing** — CLI commands, manifest embedding, and the dashboard
  section round-trip through JSON.
"""

from __future__ import annotations

import json

import pytest

from repro import cli, obs
from repro.explain import provenance
from repro.explain.diff import (
    CASES,
    SEC54_BUCKET,
    attribute_flip,
    diff_regional_vs_global,
    render_diff_dict,
    _tier_pair_case,
)
from repro.explain.journey import (
    ExplainSession,
    render_journey,
    render_journey_dict,
)
from repro.explain.provenance import (
    MAX_EVENTS,
    ProvenanceRecorder,
    SelectionTrail,
    capturing,
)

#: Every reason the routing engine may attach to a rejected candidate.
REJECT_REASONS = {
    "lower-tier", "longer-path", "not-exported", "loop",
    "equal-best-overflow", "held-better-tier",
}

STAGES = {"origin", "stage1-customer", "stage2-peer", "stage3-provider"}


@pytest.fixture(scope="module")
def session(small_world) -> ExplainSession:
    """One capture session per module: journeys and diffs share tables."""
    return ExplainSession(small_world)


@pytest.fixture(scope="module")
def sec54_diff(session):
    """The §5.4-style diff over every usable probe (computed once)."""
    return diff_regional_vs_global(session)


# ======================================================================
# Recorder semantics
# ======================================================================
class TestRecorder:
    def test_disabled_by_default(self):
        provenance.uninstall()
        assert provenance.active() is None

    def test_install_uninstall_round_trip(self):
        rec = ProvenanceRecorder()
        assert provenance.install(rec) is rec
        assert provenance.active() is rec
        assert provenance.uninstall() is rec
        assert provenance.active() is None

    def test_capturing_restores_previous(self):
        outer = ProvenanceRecorder()
        provenance.install(outer)
        try:
            with capturing() as inner:
                assert provenance.active() is inner
                assert inner is not outer
            assert provenance.active() is outer
        finally:
            provenance.uninstall()

    def test_module_emit_is_noop_when_disabled(self):
        provenance.uninstall()
        provenance.emit("routing.table-computed", routed=1)  # must not raise

    def test_module_emit_records_when_enabled(self):
        with capturing() as rec:
            provenance.emit("routing.table-computed", routed=1)
            provenance.emit("routing.table-computed", routed=2)
        assert rec.event_counts() == {"routing.table-computed": 2}

    def test_event_buffer_is_bounded(self):
        rec = ProvenanceRecorder()
        for i in range(MAX_EVENTS + 5):
            rec.emit("test.event", i=i)
        assert len(rec.events) == MAX_EVENTS
        assert rec.events_dropped == 5

    def test_len_and_clear(self):
        rec = ProvenanceRecorder()
        rec.record_selection(SelectionTrail(
            prefix="198.18.0.0/24", node_id=1, stage="origin",
            winner_tier="origin", winner_hops=0,
            tie_break="originates the prefix", candidates=(),
        ))
        rec.emit("test.event")
        assert len(rec) == 1
        rec.clear()
        assert len(rec) == 0
        assert rec.events == [] and rec.events_dropped == 0


# ======================================================================
# Capture: routing engine
# ======================================================================
class TestRoutingCapture:
    @pytest.fixture(scope="class")
    def captured(self, small_world):
        """A fresh-engine computation of the global table under capture."""
        from repro.routing.engine import RoutingEngine

        announcement = small_world.imperva.ns.announcement()
        with capturing() as rec:
            table = RoutingEngine(small_world.topology).compute(announcement)
        return table, rec

    def test_every_routed_node_has_a_trail(self, captured):
        table, rec = captured
        prefix = str(table.prefix)
        for node_id in table.best:
            assert rec.selection_for(prefix, node_id) is not None

    def test_trails_agree_with_the_table(self, captured):
        table, rec = captured
        prefix = str(table.prefix)
        for node_id, choice in table.best.items():
            trail = rec.selection_for(prefix, node_id)
            assert trail.winner_tier == choice.tier.name.lower()
            assert trail.winner_hops == choice.primary.hops
            assert trail.stage in STAGES
            # The winners appear among the accepted candidates.
            assert len(trail.accepted) == len(choice.routes)

    def test_origin_trails_are_marked(self, captured):
        table, rec = captured
        prefix = str(table.prefix)
        origins = {spec.site_node for spec in table.announcement.origins}
        for origin in origins:
            trail = rec.selection_for(prefix, origin)
            assert trail.stage == "origin"
            assert trail.winner_tier == "origin"

    def test_reject_reasons_stay_in_taxonomy(self, captured):
        _table, rec = captured
        reasons = {
            cand.reason
            for trail in rec.selection.values()
            for cand in trail.rejected
        }
        assert reasons  # the global table always produces rejects
        assert reasons <= REJECT_REASONS

    def test_prefer_customer_ground_truth_is_recorded(self, captured):
        # The §5.4 mechanism: some AS held a customer route while a
        # provider/peer offered the same prefix — recorded verbatim.
        _table, rec = captured
        held = [
            cand
            for trail in rec.selection.values()
            for cand in trail.rejected
            if cand.reason == "held-better-tier"
        ]
        assert held

    def test_candidate_lists_are_bounded(self, captured):
        from repro.routing.engine import RoutingEngine

        _table, rec = captured
        cap = RoutingEngine.MAX_TRAIL_CANDIDATES
        assert all(len(t.candidates) <= cap for t in rec.selection.values())

    def test_breadcrumb_event_emitted(self, captured):
        _table, rec = captured
        assert rec.event_counts().get("routing.table-computed") == 1

    def test_disabled_compute_records_nothing(self, small_world):
        from repro.routing.engine import RoutingEngine

        provenance.uninstall()
        announcement = small_world.imperva.ns.announcement()
        table = RoutingEngine(small_world.topology).compute(announcement)
        # Install a recorder *after* the fact: the computation above must
        # not have touched any recorder.
        with capturing() as rec:
            pass
        assert len(rec) == 0
        assert len(table.best) > 0

    def test_refused_route_server_offer_keeps_its_tier(self):
        """An origin that withholds the prefix from a route-server peer:
        the peer's trail records the refused offer as ``rs_peer``."""
        from repro.routing.engine import RoutingEngine
        from repro.routing.route import Announcement, OriginSpec
        from repro.topology.asys import LinkKind
        from tests.test_routing import PREFIX, Net

        net = Net()
        net.ixp(1)
        origin, peer, provider = net.node(1), net.node(2), net.node(3)
        net.transit(origin, provider)
        net.peer(origin, peer, kind=LinkKind.PEER_ROUTE_SERVER, ixp_id=1)
        net.peer(peer, provider)
        announcement = Announcement(prefix=PREFIX, origins=(
            OriginSpec(site_node=origin, neighbors=frozenset({provider})),
        ))
        with capturing() as rec:
            RoutingEngine(net.topo).compute(announcement)
        trail = rec.selection_for(str(PREFIX), peer)
        assert trail.stage == "stage2-peer"
        assert [(c.path, c.tier) for c in trail.accepted] == [
            ((peer, provider, origin), "peer")
        ]
        assert [(c.path, c.tier, c.reason) for c in trail.rejected] == [
            ((peer, origin), "rs_peer", "not-exported")
        ]

    def test_capture_does_not_change_results(self, captured, small_world):
        table, _rec = captured
        baseline = small_world.engine.table_for(small_world.imperva.ns.address)
        assert set(table.best) == set(baseline.best)
        for node_id, choice in table.best.items():
            assert choice.primary == baseline.best[node_id].primary


# ======================================================================
# Capture: forwarding and DNS
# ======================================================================
class TestForwardingCapture:
    def test_trail_mirrors_the_walk(self, small_world):
        from repro.routing.forwarding import trace_forwarding_path

        table = small_world.engine.table_for(
            small_world.tangled.global_deployment.address
        )
        probe = small_world.usable_probes[0]
        with capturing() as rec:
            path = trace_forwarding_path(
                small_world.topology, table, probe.as_node,
                probe.location, probe.last_mile_ms,
            )
        trail = rec.forwarding_for(str(table.prefix), probe.as_node)
        assert trail is not None
        assert trail.origin == path.origin
        # One recorded step per non-origin node of the walk, and each
        # step's chosen exit is the next node actually taken.
        assert tuple(s.node_id for s in trail.steps) == path.node_path[:-1]
        assert tuple(s.chosen.next_hop for s in trail.steps) == path.node_path[1:]
        for step in trail.steps:
            assert sum(o.chosen for o in step.options) == 1

    def test_disabled_walk_records_nothing(self, small_world):
        from repro.routing.forwarding import trace_forwarding_path

        provenance.uninstall()
        table = small_world.engine.table_for(
            small_world.tangled.global_deployment.address
        )
        probe = small_world.usable_probes[0]
        trace_forwarding_path(small_world.topology, table, probe.as_node,
                              probe.location, probe.last_mile_ms)
        with capturing() as rec:
            pass
        assert len(rec) == 0


class TestDnsCapture:
    def test_ldns_decision_matches_answer(self, small_world):
        from repro.dnssim.resolver import DnsMode

        probe = small_world.usable_probes[0]
        service = small_world.im6_service
        with capturing() as rec:
            addr = small_world.resolvers.resolve(service, probe, DnsMode.LDNS)
        decision = rec.dns_for(probe.probe_id, service.hostname,
                               DnsMode.LDNS.value)
        assert decision is not None
        assert decision.answer == str(addr)
        assert decision.mode == "local-dns"
        assert decision.region

    def test_capture_does_not_perturb_resolution(self, small_world):
        from repro.dnssim.resolver import DnsMode

        service = small_world.im6_service
        probes = small_world.usable_probes[:20]
        plain = [small_world.resolvers.resolve(service, p, DnsMode.ADNS)
                 for p in probes]
        with capturing():
            captured = [small_world.resolvers.resolve(service, p, DnsMode.ADNS)
                        for p in probes]
        assert plain == captured

    def test_adns_decision_uses_probe_address(self, small_world):
        from repro.dnssim.resolver import DnsMode

        probe = small_world.usable_probes[0]
        service = small_world.im6_service
        with capturing() as rec:
            small_world.resolvers.resolve(service, probe, DnsMode.ADNS)
        decision = rec.dns_for(probe.probe_id, service.hostname,
                               DnsMode.ADNS.value)
        assert decision.resolver_addr == str(probe.addr)
        assert decision.resolver_public is False


# ======================================================================
# Journeys
# ======================================================================
class TestJourney:
    def test_regional_journey_is_complete(self, session, small_world):
        probe = small_world.usable_probes[0]
        journey = session.journey(probe.probe_id, "regional")
        assert journey.reachable
        assert journey.dns is not None
        assert journey.node_path[0] == probe.as_node
        assert journey.node_path[-1] == journey.origin
        # Every AS on the path has its selection trail stitched in.
        assert {t.node_id for t in journey.trails} == set(journey.node_path)
        assert journey.forwarding is not None
        assert journey.rtt_ms > 0

    def test_global_journey_has_no_dns_decision(self, session, small_world):
        probe = small_world.usable_probes[0]
        journey = session.journey(probe.probe_id, "global")
        assert journey.mode == "global"
        assert journey.dns is None
        assert journey.addr == str(small_world.imperva.ns.address)

    def test_render_both_modes(self, session, small_world):
        probe = small_world.usable_probes[0]
        for mode in ("regional", "global"):
            text = render_journey(session.journey(probe.probe_id, mode),
                                  session.topology)
            assert f"== journey: probe {probe.probe_id}" in text
            assert "BGP trail (prefix " in text
            assert "Forwarding (hot-potato per hop):" in text
            assert "Landing: " in text
        regional = render_journey(session.journey(probe.probe_id, "regional"),
                                  session.topology)
        assert "DNS (local-dns): resolver " in regional
        global_ = render_journey(session.journey(probe.probe_id, "global"),
                                 session.topology)
        assert "single global anycast address" in global_

    def test_to_dict_survives_json_and_renders_without_topology(
        self, session, small_world
    ):
        probe = small_world.usable_probes[0]
        journey = session.journey(probe.probe_id, "regional")
        data = json.loads(json.dumps(journey.to_dict(session.topology)))
        text = render_journey_dict(data)
        assert f"== journey: probe {probe.probe_id}" in text
        # Node names were resolved at serialisation time.
        assert all(str(n) in data["names"] for n in journey.node_path)
        assert "AS" in text

    def test_unknown_probe_raises(self, session):
        with pytest.raises(ValueError, match="unknown or unusable probe"):
            session.journey(-1)

    def test_bad_mode_raises(self, session, small_world):
        probe = small_world.usable_probes[0]
        with pytest.raises(ValueError, match="mode must be"):
            session.journey(probe.probe_id, "sideways")

    def test_session_leaves_global_capture_disabled(self, session, small_world):
        provenance.uninstall()
        session.journey(small_world.usable_probes[0].probe_id, "global")
        assert provenance.active() is None

    def test_session_does_not_touch_production_engine(self, session, small_world):
        assert session._engine is not small_world.engine.routing


# ======================================================================
# Catchment diffs (tentpole acceptance: §5.4 mechanised)
# ======================================================================
class TestTierPairCase:
    @pytest.mark.parametrize("tier_a,tier_b,hops_a,hops_b,expected", [
        ("customer", "provider", 2, 3, "prefer-customer"),
        ("provider", "customer", 3, 2, "prefer-customer"),
        ("customer", "peer", 2, 2, "prefer-customer"),
        ("customer", "rs_peer", 2, 2, "prefer-customer"),
        ("peer", "rs_peer", 2, 2, "prefer-public-peer"),
        ("rs_peer", "peer", 2, 2, "prefer-public-peer"),
        ("peer", "provider", 2, 2, "prefer-peer"),
        ("provider", "rs_peer", 3, 2, "prefer-peer"),
        ("provider", "provider", 3, 3, "hot-potato"),
        ("peer", "peer", 2, 4, "shorter-path"),
        ("origin", "provider", 0, 3, "unknown"),
    ])
    def test_taxonomy(self, tier_a, tier_b, hops_a, hops_b, expected):
        assert _tier_pair_case(tier_a, tier_b, hops_a, hops_b) == expected

    def test_every_case_is_declared(self):
        assert set(SEC54_BUCKET) <= set(CASES)


class TestAttributeFlip:
    def _trail(self, node, tier, hops):
        return SelectionTrail(
            prefix="p", node_id=node, stage="stage1-customer",
            winner_tier=tier, winner_hops=hops, tie_break="t", candidates=(),
        )

    def test_pivot_is_last_common_node(self):
        flip = attribute_flip(
            7, (1, 2, 3), (1, 2, 9),
            {2: self._trail(2, "customer", 2)},
            {2: self._trail(2, "provider", 3)},
        )
        assert flip.pivot == 2
        assert flip.case == "prefer-customer"
        assert (flip.origin_a, flip.origin_b) == (3, 9)

    def test_missing_trail_falls_back_to_unknown(self):
        flip = attribute_flip(7, (1, 2, 3), (1, 2, 9), {}, {})
        assert flip.case == "unknown"
        assert "no selection trail" in flip.detail


class TestSec54Diff:
    def test_flips_exist_and_prefer_customer_dominates(self, sec54_diff):
        counts = sec54_diff.counts()
        assert len(sec54_diff.flips) > 0
        # Acceptance: at least one flip attributed to the paper's
        # headline mechanism (§5.4 as-relationship-override).
        assert counts["prefer-customer"] >= 1
        # Ground-truth trails leave nothing unattributed on the small world.
        assert counts["unknown"] == 0

    def test_flips_are_well_formed(self, sec54_diff):
        for flip in sec54_diff.flips:
            assert flip.case in CASES
            assert flip.origin_a != flip.origin_b
            assert flip.tier_a and flip.tier_b

    def test_counts_sum_to_flips(self, sec54_diff):
        assert sum(sec54_diff.counts().values()) == len(sec54_diff.flips)

    def test_render_names_the_paper_bucket(self, sec54_diff, session):
        data = json.loads(json.dumps(sec54_diff.to_dict(session.topology)))
        text = render_diff_dict(data)
        assert "== catchment diff: global" in text
        assert "flipped clients:" in text
        assert "[sec5.4: as-relationship-override]" in text

    def test_cross_check_against_sec54_experiment(self, session, sec54_diff,
                                                  small_world):
        """The analyst-grade §5.4 attribution vs the ground-truth diff.

        The two measure different populations with different rules —
        ``sec54`` classifies *improved probe groups* from traceroute-
        visible hops and published route-server feeds only, while the
        diff attributes *every flipped client* from recorded decisions —
        so counts are not comparable one-to-one.  What must hold:

        - both find AS-relationship overrides (prefer-customer) present;
        - the ground-truth diff's *unknown* share is no larger than the
          deliberately conservative analyst's unknown share.
        """
        from repro.analysis.cases import CaseType
        from repro.experiments import sec54

        result = sec54.run(small_world)
        assert result.cases.counts.get(CaseType.RELATIONSHIP_OVERRIDE, 0) > 0
        assert sec54_diff.counts()["prefer-customer"] > 0
        explain_unknown = (
            sec54_diff.counts()["unknown"] / max(1, len(sec54_diff.flips))
        )
        assert explain_unknown <= result.fraction(CaseType.UNKNOWN)


# ======================================================================
# Surfacing: CLI, manifests, dashboard
# ======================================================================
class TestCli:
    def test_explain_client_both_modes(self, small_world, capsys):
        probe = small_world.usable_probes[0]
        assert cli.main(["explain", "client", str(probe.probe_id),
                         "--small"]) == 0
        out = capsys.readouterr().out
        assert "(regional)" in out and "(global)" in out
        assert "Landing: " in out

    def test_explain_client_unknown_probe(self, capsys):
        assert cli.main(["explain", "client", "-1", "--small"]) == 2
        assert "unknown or unusable probe" in capsys.readouterr().err

    def test_explain_catchment_breakdown(self, small_world, capsys):
        addr = str(small_world.imperva.ns.address)
        assert cli.main(["explain", "catchment", addr, "--small"]) == 0
        out = capsys.readouterr().out
        assert "catchment of" in out
        assert "winning tier per AS:" in out
        assert "assigning stage per AS:" in out

    def test_explain_diff_with_trace_embeds_manifest(self, small_world,
                                                     tmp_path, capsys):
        addr_a = str(small_world.imperva.ns.address)
        addr_b = str(small_world.imperva.im6.address_of_region("EMEA"))
        assert cli.main(["explain", "diff", addr_a, addr_b, "--small",
                         "--trace", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "== catchment diff:" in out
        manifests = sorted(tmp_path.glob("run-*.json"))
        assert manifests
        data = json.loads(manifests[-1].read_text())
        assert "explain" in data
        assert data["explain"]["diffs"][0]["counts"]


class TestManifestRoundTrip:
    def _manifest_with(self, payload):
        from repro.obs.manifest import RunManifest, from_recorder

        obs.uninstall()
        with obs.recording("explain-test") as rec:
            with obs.span("experiment.explain"):
                pass
        rec.explain_data = payload
        manifest = from_recorder(rec)
        return RunManifest.from_dict(json.loads(json.dumps(manifest.to_dict())))

    def test_journeys_round_trip_and_render(self, session, small_world):
        from repro.obs.report import render_dashboard, render_dashboard_html

        probe = small_world.usable_probes[0]
        journey = session.journey(probe.probe_id, "regional")
        manifest = self._manifest_with(
            {"journeys": [journey.to_dict(session.topology)]}
        )
        assert manifest.explain is not None
        text = render_dashboard(manifest)
        assert "explain: decision provenance" in text
        assert f"== journey: probe {probe.probe_id}" in text
        html = render_dashboard_html(manifest)
        assert "explain: decision provenance" in html

    def test_diffs_round_trip_and_render(self, session, sec54_diff):
        from repro.obs.report import render_dashboard

        manifest = self._manifest_with(
            {"diffs": [sec54_diff.to_dict(session.topology)]}
        )
        text = render_dashboard(manifest)
        assert "== catchment diff: global" in text

    def test_manifest_without_explain_has_no_section(self):
        from repro.obs.report import render_dashboard

        manifest = self._manifest_with(None)
        assert manifest.explain is None
        assert "explain: decision provenance" not in render_dashboard(manifest)


class TestLookingGlassIntegration:
    def test_show_route_appends_trail_when_capturing(self, session, small_world):
        from repro.routing.inspect import show_route

        announcement = session.announcement_for(small_world.imperva.ns.address)
        table = session.table_for(announcement)
        # Find a node whose trail kept at least one rejected candidate.
        prefix = str(announcement.prefix)
        node_id = next(
            node for (p, node), t in session.recorder.selection.items()
            if p == prefix and t.rejected and small_world.topology.has_node(node)
        )
        plain = show_route(small_world.topology, table, node_id)
        assert "selection [" not in plain
        provenance.install(session.recorder)
        try:
            explained = show_route(small_world.topology, table, node_id)
        finally:
            provenance.uninstall()
        assert "selection [" in explained
        assert "rejected:" in explained
