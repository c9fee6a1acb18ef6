"""The paper's qualitative claims as machine-checkable assertions.

EXPERIMENTS.md narrates paper-vs-measured; this module *operationalises*
it: each :class:`Claim` names a statement from the paper's evaluation and
a check over experiment results.  ``python -m repro verify`` runs the
experiments and prints a ✔/✘ scorecard — the repository's definition of
"the reproduction still works" after any change.

Checks are deliberately qualitative (signs, orderings, ranges), because
absolute milliseconds belong to the authors' testbed, not to a simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from repro.analysis.cases import CaseType
from repro.analysis.mapping import MappingClass
from repro.dnssim.resolver import DnsMode
from repro.experiments import (
    fig1,
    fig2,
    fig3,
    fig4,
    fig6,
    fig7,
    fig8,
    igreedy_compare,
    longitudinal,
    resilience,
    sec52_tails,
    sec54,
    table1,
    table2,
    table3,
    table4,
    table5,
)
from repro.experiments.base import experiment_name
from repro.experiments.world import World
from repro.geo.areas import AREAS, Area
from repro.sitemap.pipeline import Technique


@dataclass(frozen=True)
class ClaimResult:
    claim_id: str
    statement: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class Claim:
    claim_id: str
    statement: str
    #: Experiment modules whose results the check needs, keyed by id.
    needs: tuple[str, ...]
    check: Callable[[dict], tuple[bool, str]]


class _Results:
    """Results for the claim checks: taken from ``done``, else run once."""

    _MODULES = {
        "fig1": fig1, "fig2": fig2, "fig3": fig3, "fig4": fig4,
        "fig6": fig6, "fig7": fig7, "fig8": fig8,
        "table1": table1, "table2": table2, "table3": table3,
        "table4": table4, "table5": table5,
        "sec54": sec54, "sec52": sec52_tails,
        "igreedy": igreedy_compare, "longitudinal": longitudinal,
        "resilience": resilience,
    }

    def __init__(self, world: World, done: Mapping[str, object]):
        self._world = world
        self._cache: dict[str, object] = {
            key: done[experiment_name(module)]
            for key, module in self._MODULES.items()
            if experiment_name(module) in done
        }

    def __getitem__(self, key: str):
        if key == "world":
            return self._world
        if key not in self._cache:
            self._cache[key] = self._MODULES[key].run(self._world)
        return self._cache[key]


def _check_fig1(r) -> tuple[bool, str]:
    res = r["fig1"]
    ok = "SIN" in res.global_site and "IAD" in res.regional_site \
        and res.inflation_ms > 50
    return ok, f"inflation removed: {res.inflation_ms:.0f} ms"


def _check_fig7(r) -> tuple[bool, str]:
    res = r["fig7"]
    return res.inflation_ms > 50, f"inflation removed: {res.inflation_ms:.0f} ms"


def _check_survey(r) -> tuple[bool, str]:
    res = r["table5"]
    summary = res.hostname_sets.summary()
    ok = summary == {"Edgio-3": 50, "Edgio-4": 34, "Imperva-6": 78,
                     "excluded": 25}
    return ok, f"hostname sets: {summary}"


def _check_partitions(r) -> tuple[bool, str]:
    res = r["fig2"]
    im = res.view("Imperva-6")
    ok = (
        len(im.probes_per_region) == 6
        and set(im.sites_per_region["RU"]) <= {"AMS", "FRA", "LHR"}
        and "SJC" in im.mixed_sites
        and res.view("Edgio-4").mixed_sites == ["MIA"]
        and all(v.single_ip_country_fraction > 0.7 for v in res.views)
    )
    return ok, (
        f"IM regions: {len(im.probes_per_region)}, RU from "
        f"{im.sites_per_region['RU']}, mixed {im.mixed_sites}"
    )


def _check_fig3(r) -> tuple[bool, str]:
    res = r["fig3"]
    worst_unresolved = max(
        bars["p-hops"][Technique.UNRESOLVED] for bars in res.bars.values()
    )
    rdns_dominant = all(
        bars["p-hops"][Technique.RDNS] == max(bars["p-hops"].values())
        for bars in res.bars.values()
    )
    return (
        rdns_dominant and worst_unresolved < 0.35,
        f"rDNS dominant everywhere; worst unresolved "
        f"{100 * worst_unresolved:.1f}%",
    )


def _check_table1(r) -> tuple[bool, str]:
    res = r["table1"]
    ok = (
        res.total("EG-Pub") == 79
        and res.total("IM-Pub") == 50
        and res.total("Tangled") == 12
        and 30 <= res.total("EG-3") <= 43
        and 38 <= res.total("IM-6") <= 48
    )
    return ok, (
        f"measured totals EG-3 {res.total('EG-3')}/43, "
        f"IM-6 {res.total('IM-6')}/48"
    )


def _check_table2(r) -> tuple[bool, str]:
    res = r["table2"]
    im = res.efficiencies[("Imperva-6", DnsMode.LDNS)]
    eg = res.efficiencies[("Edgio-3", DnsMode.LDNS)]
    im_sub = sum(
        im.fraction(a, MappingClass.REGION_SUBOPTIMAL)
        for a in (Area.EMEA, Area.NA)
    )
    eg_sub = sum(
        eg.fraction(a, MappingClass.REGION_SUBOPTIMAL)
        for a in (Area.EMEA, Area.NA)
    )
    return (
        im_sub > eg_sub,
        f"✓Region-suboptimal (EMEA+NA): Imperva {100 * im_sub:.1f}% vs "
        f"Edgio {100 * eg_sub:.1f}%",
    )


def _check_eg_latam(r) -> tuple[bool, str]:
    res = r["fig4"]
    eg3 = res.series["EG3"][Area.LATAM].rtt
    eg4 = res.series["EG4"][Area.LATAM].rtt
    return (
        eg4.percentile(80) < eg3.percentile(80),
        f"LatAm p80: EG3 {eg3.percentile(80):.0f} → EG4 "
        f"{eg4.percentile(80):.0f} ms",
    )


def _check_table3(r) -> tuple[bool, str]:
    res = r["table3"]
    wins = losses = 0
    for area, cells in res.cells.items():
        for p, (regional, global_) in cells.items():
            if p < 90:
                continue
            if regional < global_ - 5:
                wins += 1
            elif regional > global_ + 5:
                losses += 1
    return (
        wins >= 1 and res.retained_fraction > 0.6,
        f"tail cells (p>=90): {wins} regional wins, {losses} losses; "
        f"{100 * res.retained_fraction:.1f}% groups retained",
    )


def _check_table4(r) -> tuple[bool, str]:
    res = r["table4"]
    checked = 0
    for area, crosstab in res.crosstabs.items():
        if crosstab["better"]["count"] >= 5:
            if crosstab["better"]["closer"] <= 0.6:
                return False, f"{area}: improved groups not closer"
            checked += 1
        if crosstab["similar"]["count"] >= 10:
            if crosstab["similar"]["same"] <= 0.9:
                return False, f"{area}: similar groups not same-site"
            checked += 1
    return checked > 0, f"{checked} populated cells match the diagonal"


def _check_fig8(r) -> tuple[bool, str]:
    res = r["fig8"]
    return (
        res.median_abs_gap_ms < 3.0,
        f"median |gap| {res.median_abs_gap_ms:.1f} ms",
    )


def _check_sec54(r) -> tuple[bool, str]:
    res = r["sec54"]
    rel = res.fraction(CaseType.RELATIONSHIP_OVERRIDE)
    ptype = res.fraction(CaseType.PEERING_TYPE_OVERRIDE)
    return (
        res.improved_groups > 0 and rel >= ptype and rel > 0.1,
        f"{100 * rel:.1f}% relationship / {100 * ptype:.1f}% peering-type "
        f"over {res.improved_groups} improved groups",
    )


def _check_sec52(r) -> tuple[bool, str]:
    res = r["sec52"]
    ok = (
        0 < res.affected_groups < res.total_groups
        and res.set1 + res.set2 == res.affected_groups
        and (res.set1_correct_region > 0 or res.set1 == 0)
    )
    return ok, (
        f"{res.affected_groups} affected; set1 {res.set1} "
        f"(rigid {res.set1_correct_region}), set2 {res.set2}"
    )


def _check_fig6(r) -> tuple[bool, str]:
    res = r["fig6"]
    reductions = [
        x for a in AREAS for x in [res.reduction_at_p90(a)] if x is not None
    ]
    mean_reduction = sum(reductions) / len(reductions)
    return (
        res.plan.k > 3 and mean_reduction > 0.05,
        f"K={res.plan.k}; mean p90 reduction {100 * mean_reduction:.1f}%",
    )


def _check_igreedy(r) -> tuple[bool, str]:
    res = r["igreedy"]
    return (
        len(res.igreedy_sites) < len(res.phop_sites),
        f"p-hop {len(res.phop_sites)} vs iGreedy {len(res.igreedy_sites)} "
        f"published sites",
    )


def _check_longitudinal(r) -> tuple[bool, str]:
    res = r["longitudinal"]
    return res.all_stable, f"{res.campaigns} campaigns, all partitions stable"


def _check_resilience(r) -> tuple[bool, str]:
    res = r["resilience"]
    return (
        res.min_reachable_fraction >= 1.0,
        "every withdrawal fails over with full reachability",
    )


def _check_reachability(r) -> tuple[bool, str]:
    world: World = r["world"]
    im6 = world.imperva.im6
    for region in im6.region_names:
        pings = world.ping_all(im6.address_of_region(region))
        if not all(p.reachable for p in pings.values()):
            return False, f"region {region} unreachable for some probes"
    return True, "all probes reach all six regional IPs"


ALL_CLAIMS: tuple[Claim, ...] = (
    Claim("fig1", "customer-route preference pulls a D.C. client to Singapore; "
          "the regional prefix fixes it", ("fig1",), _check_fig1),
    Claim("survey", "§4.1-4.2: the discovery pipeline recovers the "
          "Edgio-3/Edgio-4/Imperva-6 hostname sets", ("table5",), _check_survey),
    Claim("partitions", "§4.3-4.4: six Imperva regions, RU served from "
          "AMS/FRA/LHR, MIXED sites SJC and MIA, countries mostly see one "
          "regional IP", ("fig2",), _check_partitions),
    Claim("phop", "Appendix B: rDNS dominates p-hop geolocation; the "
          "majority of p-hops resolve", ("fig3",), _check_fig3),
    Claim("sites", "Table 1: measured site sets approach but undercount "
          "published lists", ("table1",), _check_table1),
    Claim("reachability", "§4.5: regional prefixes are globally reachable",
          (), _check_reachability),
    Claim("mapping", "§5.1: Imperva's six-region partition maps clients "
          "less efficiently than Edgio's coarse partitions",
          ("table2",), _check_table2),
    Claim("eg-latam", "§5.2: Edgio-4 improves LatAm clients over Edgio-3",
          ("fig4",), _check_eg_latam),
    Claim("tails", "§5.2: 100+ms groups split into rigid-mapping, "
          "geo-error, cross-region and connectivity causes",
          ("sec52",), _check_sec52),
    Claim("regional-tail", "§5.3: regional anycast removes part of global "
          "anycast's latency tail", ("table3",), _check_table3),
    Claim("crosstab", "§5.3: improved groups reach closer sites; similar "
          "groups reach the same sites", ("table4",), _check_table4),
    Claim("same-site", "Appendix D: same-site RTTs are prefix-independent",
          ("fig8",), _check_fig8),
    Claim("causes", "§5.4: AS-relationship override dominates attributed "
          "improvements", ("sec54",), _check_sec54),
    Claim("reopt", "§6: latency-based regional partitioning beats global "
          "anycast on the testbed", ("fig6",), _check_fig6),
    Claim("fig7-case", "§5.4/Fig.7: public-peer preference pulls a client "
          "past the route server; regional fixes it", ("fig7",), _check_fig7),
    Claim("igreedy", "§7: iGreedy maps fewer sites than the p-hop pipeline",
          ("igreedy",), _check_igreedy),
    Claim("stability", "§4.4: site partitions are stable across campaigns",
          ("longitudinal",), _check_longitudinal),
    Claim("failover", "§4.5 (extension): single-site withdrawal never "
          "strands clients", ("resilience",), _check_resilience),
)


def experiments_needed() -> set[str]:
    """Names of the experiments whose results the claim checks read."""
    return {experiment_name(module) for module in _Results._MODULES.values()}


def verify_claims(
    world: World,
    claims: tuple[Claim, ...] = ALL_CLAIMS,
    done: Mapping[str, object] | None = None,
) -> list[ClaimResult]:
    """Run every claim check against one world.

    ``done`` maps experiment names (``repro list``) to results a run has
    already produced; only the experiments it lacks are run, once each.
    """
    results = _Results(world, done or {})
    outcomes = []
    for claim in claims:
        try:
            passed, detail = claim.check(results)
        except Exception as exc:  # a crashed check is a failed claim
            passed, detail = False, f"check raised {type(exc).__name__}: {exc}"
        outcomes.append(
            ClaimResult(claim_id=claim.claim_id, statement=claim.statement,
                        passed=passed, detail=detail)
        )
    return outcomes


def render_scorecard(outcomes: list[ClaimResult]) -> str:
    lines = ["== paper-claim scorecard =="]
    for outcome in outcomes:
        mark = "PASS" if outcome.passed else "FAIL"
        lines.append(f"[{mark}] {outcome.claim_id}: {outcome.statement}")
        lines.append(f"       {outcome.detail}")
    passed = sum(1 for o in outcomes if o.passed)
    lines.append(f"{passed}/{len(outcomes)} claims hold")
    return "\n".join(lines)
