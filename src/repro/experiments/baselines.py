"""§2.2's proposals, actually compared: global vs DailyCatch vs AnyOpt vs
regional anycast (ReOpt) on the Tangled testbed.

The paper argues regional anycast dominates the prior proposals but
leaves the head-to-head "as future work"; with every system implemented
on one substrate, the comparison is one function call.  Expected shape:
DailyCatch picks the better of its two configurations but keeps a tail;
AnyOpt's site subset trims the tail further; latency-based regional
anycast (which can use *all* sites, regionally scoped) wins the tail.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.cdf import percentile
from repro.analysis.report import render_table
from repro.baselines.anyopt import AnyOptResult, anyopt_site_search
from repro.baselines.dailycatch import DailyCatchResult, run_dailycatch
from repro.dnssim.resolver import DnsMode
from repro.dnssim.route53 import GeoPolicyZone
from repro.experiments.world import World
from repro.tangled.reopt import ReOpt


@dataclass
class BaselinesResult:
    experiment_id: str
    #: strategy → probe id → RTT ms.
    rtts: dict[str, dict[int, float]] = field(default_factory=dict)
    dailycatch: DailyCatchResult = None
    anyopt: AnyOptResult = None

    def overall_percentile(self, strategy: str, p: int) -> float:
        return percentile(list(self.rtts[strategy].values()), p)

    def render(self) -> str:
        rows = []
        for strategy in self.rtts:
            rows.append(
                [
                    strategy,
                    len(self.rtts[strategy]),
                    f"{self.overall_percentile(strategy, 50):.0f}",
                    f"{self.overall_percentile(strategy, 90):.0f}",
                    f"{self.overall_percentile(strategy, 95):.0f}",
                ]
            )
        table = render_table(
            ["Strategy", "probes", "p50", "p90", "p95"],
            rows,
            title="== sec2.2 baselines on Tangled (per-probe RTT, ms) ==",
        )
        notes = (
            f"DailyCatch chose: {self.dailycatch.chosen} "
            f"(transit-only p90 {self.dailycatch.transit_only_metric:.0f} vs "
            f"all-neighbors p90 {self.dailycatch.all_neighbors_metric:.0f})\n"
            f"AnyOpt kept {len(self.anyopt.chosen_sites)}/12 sites "
            f"({' '.join(self.anyopt.chosen_sites)}), "
            f"improvement {100.0 * self.anyopt.improvement:.1f}%"
        )
        return f"{table}\n{notes}"


def run(world: World) -> BaselinesResult:
    result = BaselinesResult(experiment_id="sec22-baselines")
    network = world.tangled.network
    site_names = world.tangled.site_names
    probes = world.usable_probes

    # Plain global anycast: the paper's baseline.
    global_addr = world.tangled.global_deployment.address
    result.rtts["global-anycast"] = {
        pid: r.rtt_ms
        for pid, r in world.ping_all(global_addr).items()
        if r.rtt_ms is not None
    }

    # DailyCatch: better of transit-only vs all-neighbors.
    result.dailycatch = run_dailycatch(network, site_names, world.engine, probes)
    result.rtts["dailycatch"] = result.dailycatch.chosen_rtts

    # AnyOpt: best measured site subset.
    result.anyopt = anyopt_site_search(network, site_names, world.engine, probes)
    result.rtts["anyopt-subset"] = result.anyopt.chosen_rtts

    # Regional anycast with ReOpt + Route-53-style mapping (§6).
    reopt = ReOpt(world.tangled, world.engine, probes)
    best, _ = reopt.sweep((3, 6))
    deployment = reopt.deploy(best)
    for announcement in deployment.announcements():
        if world.registry.lookup(announcement.prefix.address(1)) is None:
            world.registry.register(announcement)
    zone = GeoPolicyZone.from_country_mapping(
        "baselines-reopt.example",
        world.route53_db,
        {
            country: deployment.address_of_region(region)
            for country, region in best.region_of_country.items()
        },
        default=deployment.address_of_region(best.default_region),
    )
    regional: dict[int, float] = {}
    for probe in probes:
        addr = zone.answer_for_source(
            world.resolvers.query_source(probe, DnsMode.LDNS)
        )
        ping = world.ping_all(addr)[probe.probe_id]
        if ping.rtt_ms is not None:
            regional[probe.probe_id] = ping.rtt_ms
    result.rtts["regional-reopt"] = regional
    return result
