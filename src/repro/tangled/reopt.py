"""ReOpt: latency-based region partition and client mapping (§6.1).

Three steps, exactly as the paper describes:

1. **Partition sites** into K geographic regions with K-Means over site
   coordinates (we run spherical K-Means on unit vectors with
   deterministic farthest-first initialisation).
2. **Assign each probe** to the region containing its lowest-unicast-
   latency site (unicast latencies come from per-site prefixes the
   testbed announces).
3. **Aggregate to countries**: every country maps to the region holding
   the majority of its probes, so the mapping is expressible with a
   commercial country-level geolocation DNS service (Route 53).

The region count is chosen by sweeping K = 3..6: each candidate
partition is actually *deployed* (one anycast prefix per region) and the
average measured client latency under the country-level mapping selects
the K — fewer regions mean more sites per prefix but also more room for
BGP to pick a distant in-region site, so the measured optimum is
interior (the paper finds five regions on Tangled).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass

from repro.cdn.deployment import RegionalDeployment
from repro.dnssim.service import RegionMap
from repro.geo.coords import GeoPoint
from repro.measurement.engine import MeasurementEngine
from repro.measurement.probes import Probe
from repro.netaddr.ipv4 import IPv4Address
from repro.tangled.testbed import TangledTestbed


def spherical_kmeans(
    points: dict[str, GeoPoint], k: int, iterations: int = 50
) -> dict[str, int]:
    """Cluster named points on the sphere into ``k`` groups.

    Uses deterministic farthest-first initialisation (first centre = the
    lexicographically first point) followed by Lloyd iterations with
    spherical centroids; returns name → cluster index.
    """
    if k < 1:
        raise ValueError(f"invalid cluster count: {k}")
    names = sorted(points)
    if k >= len(names):
        return {name: i for i, name in enumerate(names)}
    # Farthest-first initial centres.
    centres: list[GeoPoint] = [points[names[0]]]
    while len(centres) < k:
        farthest = max(
            names,
            key=lambda n: (min(points[n].distance_km(c) for c in centres), n),
        )
        centres.append(points[farthest])
    assignment: dict[str, int] = {}
    for _ in range(iterations):
        new_assignment = {
            name: min(
                range(k), key=lambda i: (points[name].distance_km(centres[i]), i)
            )
            for name in names
        }
        if new_assignment == assignment:
            break
        assignment = new_assignment
        from repro.geo.coords import centroid

        for i in range(k):
            members = [points[n] for n, c in assignment.items() if c == i]
            if members:
                centres[i] = centroid(members)
    return assignment


@dataclass
class ReOptPlan:
    """The output of one ReOpt planning run for a fixed K."""

    k: int
    #: site name → region name ("R0".."R{k-1}").
    region_of_site: dict[str, str]
    #: probe id → region name (direct lowest-latency assignment).
    region_of_probe: dict[int, str]
    #: country → region name (majority vote).
    region_of_country: dict[str, str]
    #: Planning metric: mean over probes of the lowest unicast latency
    #: among the sites of the probe's country-mapped region.
    mean_planned_latency_ms: float
    #: The default region for countries without probes (the one holding
    #: the most probes).
    default_region: str
    #: Mean *measured* anycast latency under the country-level mapping,
    #: filled in by :meth:`ReOpt.measure` / :meth:`ReOpt.sweep` after the
    #: partition is deployed (None until then).
    mean_measured_latency_ms: float | None = None
    #: The deployment backing the measurement (set by ReOpt).
    deployment: "RegionalDeployment | None" = None

    def sites_of_region(self, region: str) -> list[str]:
        return sorted(s for s, r in self.region_of_site.items() if r == region)

    def regions(self) -> list[str]:
        return sorted(set(self.region_of_site.values()))

    def region_map(self) -> RegionMap:
        return RegionMap(
            region_of_country=dict(self.region_of_country),
            default_region=self.default_region,
        )


class ReOpt:
    """Plans and deploys latency-based regional anycast on a testbed."""

    def __init__(
        self,
        testbed: TangledTestbed,
        engine: MeasurementEngine,
        probes: list[Probe],
    ):
        if not probes:
            raise ValueError("ReOpt needs probes to plan with")
        self._testbed = testbed
        self._engine = engine
        self._probes = list(probes)
        self._unicast_cache: dict[int, dict[str, float]] | None = None

    # ------------------------------------------------------------------
    def unicast_latencies(self) -> dict[int, dict[str, float]]:
        """Per-probe unicast RTT to each testbed site (cached)."""
        if self._unicast_cache is None:
            latencies: dict[int, dict[str, float]] = defaultdict(dict)
            for site_name in self._testbed.site_names:
                addr = self._testbed.unicast_address(site_name)
                pings = self._engine.ping_many(self._probes, addr)
                for probe_id, result in pings.items():
                    if result.rtt_ms is not None:
                        latencies[probe_id][site_name] = result.rtt_ms
            self._unicast_cache = dict(latencies)
        return self._unicast_cache

    # ------------------------------------------------------------------
    def plan(self, k: int) -> ReOptPlan:
        """Run the three ReOpt steps for a fixed region count."""
        site_points = {
            name: self._testbed.site(name).city.location
            for name in self._testbed.site_names
        }
        clusters = spherical_kmeans(site_points, k)
        region_of_site = {name: f"R{idx}" for name, idx in clusters.items()}
        unicast = self.unicast_latencies()
        region_of_probe: dict[int, str] = {}
        for probe in self._probes:
            rtts = unicast.get(probe.probe_id)
            if not rtts:
                continue
            best_site = min(rtts, key=lambda s: (rtts[s], s))
            region_of_probe[probe.probe_id] = region_of_site[best_site]
        # Country-level majority vote.
        votes: dict[str, Counter] = defaultdict(Counter)
        for probe in self._probes:
            region = region_of_probe.get(probe.probe_id)
            if region is not None:
                votes[probe.country][region] += 1
        region_of_country = {
            country: counter.most_common(1)[0][0]
            for country, counter in sorted(votes.items())
        }
        overall: Counter = Counter(region_of_probe.values())
        default_region = overall.most_common(1)[0][0]
        mean_planned = self._planned_latency(
            region_of_site, region_of_country, default_region, unicast
        )
        return ReOptPlan(
            k=k,
            region_of_site=region_of_site,
            region_of_probe=region_of_probe,
            region_of_country=region_of_country,
            mean_planned_latency_ms=mean_planned,
            default_region=default_region,
        )

    def _planned_latency(
        self,
        region_of_site: dict[str, str],
        region_of_country: dict[str, str],
        default_region: str,
        unicast: dict[int, dict[str, float]],
    ) -> float:
        """Average client latency if every client reached the best site of
        its country-mapped region — the sweep's selection metric."""
        sites_of = defaultdict(list)
        for site, region in region_of_site.items():
            sites_of[region].append(site)
        total = 0.0
        count = 0
        for probe in self._probes:
            rtts = unicast.get(probe.probe_id)
            if not rtts:
                continue
            region = region_of_country.get(probe.country, default_region)
            candidates = [rtts[s] for s in sites_of[region] if s in rtts]
            if not candidates:
                continue
            total += min(candidates)
            count += 1
        return total / count if count else float("inf")

    def measure(self, plan: ReOptPlan) -> float:
        """Deploy a plan and measure its mean client latency.

        Each probe pings the anycast address of its *country-mapped*
        region (the production configuration); the mean RTT is stored on
        the plan and returned.
        """
        deployment = self.deploy(plan)
        registry = self._engine.registry
        for announcement in deployment.announcements():
            if registry.lookup(announcement.prefix.address(1)) is None:
                registry.register(announcement)
        members: dict[IPv4Address, list[Probe]] = defaultdict(list)
        for probe in self._probes:
            region = plan.region_of_country.get(probe.country, plan.default_region)
            members[deployment.address_of_region(region)].append(probe)
        rtt_of = {
            probe_id: result.rtt_ms
            for addr, probes in members.items()
            for probe_id, result in self._engine.ping_many(probes, addr).items()
        }
        # Summed in probe order: the mean is a float sum.
        total = 0.0
        count = 0
        for probe in self._probes:
            rtt = rtt_of[probe.probe_id]
            if rtt is not None:
                total += rtt
                count += 1
        measured = total / count if count else float("inf")
        plan.mean_measured_latency_ms = measured
        return measured

    def sweep(self, k_range: tuple[int, int] = (3, 6)) -> tuple[ReOptPlan, list[ReOptPlan]]:
        """Plan, deploy, and measure each K; return (best, all plans).

        The best K minimises the mean *measured* anycast latency under
        the country-level mapping (§6.1 finds K=5 optimal on Tangled).
        """
        lo, hi = k_range
        plans = [self.plan(k) for k in range(lo, hi + 1)]
        for plan in plans:
            self.measure(plan)
        best = min(plans, key=lambda p: (p.mean_measured_latency_ms, p.k))
        return best, plans

    # ------------------------------------------------------------------
    def deploy(self, plan: ReOptPlan) -> RegionalDeployment:
        """Materialise a plan as a regional anycast deployment (cached
        on the plan so repeated calls reuse the same prefixes)."""
        if plan.deployment is not None:
            return plan.deployment
        regions = {
            region: plan.sites_of_region(region) for region in plan.regions()
        }
        plan.deployment = RegionalDeployment(
            name=f"Tangled-ReOpt-{plan.k}",
            network=self._testbed.network,
            regions=regions,
            region_map=plan.region_map(),
        )
        return plan.deployment
