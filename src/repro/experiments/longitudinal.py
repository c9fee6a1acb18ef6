"""§4.4's longitudinal check: do site partitions change over time?

The paper enumerated the announcing sites of nine hostnames "weekly for
two months" and found the partitions stable.  The simulator's analogue:
re-run the full enumeration pipeline over several measurement campaigns
(fresh measurement-jitter universes — routing is unchanged, as it was in
the paper's observation window) and compare the inferred partitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.report import render_table
from repro.experiments.world import World
from repro.sitemap.pipeline import SiteMapper

DEFAULT_CAMPAIGNS = 4


@dataclass
class LongitudinalResult:
    experiment_id: str
    campaigns: int = 0
    #: deployment name → region → list of per-campaign site tuples.
    observations: dict[str, dict[str, list[tuple[str, ...]]]] = field(
        default_factory=dict
    )

    def stable(self, deployment: str, region: str) -> bool:
        return len(set(self.observations[deployment][region])) == 1

    @property
    def all_stable(self) -> bool:
        return all(
            self.stable(dep, region)
            for dep, regions in self.observations.items()
            for region in regions
        )

    def render(self) -> str:
        rows = []
        for dep, regions in self.observations.items():
            for region, campaigns in sorted(regions.items()):
                rows.append(
                    [dep, region, len(set(campaigns)),
                     "stable" if len(set(campaigns)) == 1 else "CHANGED"]
                )
        table = render_table(
            ["Deployment", "Region", "Distinct partitions", "Verdict"],
            rows,
            title=f"== §4.4 longitudinal: site partitions over "
                  f"{self.campaigns} campaigns ==",
        )
        return table


def run(world: World, campaigns: int = DEFAULT_CAMPAIGNS) -> LongitudinalResult:
    result = LongitudinalResult(experiment_id="longitudinal",
                                campaigns=campaigns)
    deployments = {
        "Edgio-3": world.edgio.eg3,
        "Imperva-6": world.imperva.im6,
    }
    for name, deployment in deployments.items():
        result.observations[name] = {region: [] for region in deployment.region_names}
    for week in range(campaigns):
        # A fresh engine seed = a fresh measurement campaign (different
        # jitter; same routed Internet, so the campaign shares the world
        # engine's routing tables and forwarding memo).
        engine = world.engine.campaign(
            world.config.measurement_seed + 1000 + week
        )
        for name, deployment in deployments.items():
            mapper = SiteMapper(
                atlas=world.topology.atlas,  # type: ignore[attr-defined]
                rdns=world.rdns,
                databases=world.databases,
                published_sites=deployment.published_cities,
            )
            for region in deployment.region_names:
                addr = deployment.address_of_region(region)
                traces = engine.traceroute_many(world.usable_probes, addr)
                mapping = mapper.map_traces(traces, world.probe_by_id)
                result.observations[name][region].append(
                    tuple(sorted(c.iata for c in mapping.sites))
                )
    return result
