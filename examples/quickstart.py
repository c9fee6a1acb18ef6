#!/usr/bin/env python3
"""Quickstart: build an Internet, deploy anycast, measure it.

This walks the library's core loop in ~60 lines:

1. generate a seeded synthetic Internet (tier-1 clique, transits, stubs,
   IXPs);
2. deploy a six-site anycast network on it;
3. announce one *global* prefix from all sites and one *regional* prefix
   from the European sites only;
4. generate a RIPE-Atlas-like probe population and ping both prefixes;
5. print per-area latency percentiles — regional anycast pins European
   clients to European sites.

Run: ``python examples/quickstart.py``
"""

from repro.analysis.cdf import percentile
from repro.analysis.report import render_table
from repro.anycast import AnycastNetwork
from repro.geo.areas import AREAS
from repro.measurement import (
    MeasurementEngine,
    ProbeParams,
    ProbePopulation,
    ServiceRegistry,
    group_probes,
)
from repro.topology import InternetBuilder, TopologyParams


def main() -> None:
    # 1. A deterministic Internet: same seed, same world.
    topology = InternetBuilder(
        TopologyParams(seed=7, num_tier1=8, num_transit=120, num_stubs=500)
    ).build()
    print(f"Internet: {topology.num_nodes} ASes, {topology.num_links} links")

    # 2. An anycast operator with six sites.
    cdn = AnycastNetwork("quickcdn", asn=64500, topology=topology, seed=1)
    for metro in ("IAD", "LAX", "AMS", "FRA", "SIN", "GRU"):
        cdn.add_site(metro)

    # 3. One global prefix (all sites) and one European regional prefix.
    global_prefix = cdn.allocate_service_prefix()
    regional_prefix = cdn.allocate_service_prefix()
    registry = ServiceRegistry()
    registry.register(cdn.announcement(global_prefix, cdn.site_names()))
    registry.register(cdn.announcement(regional_prefix, ["AMS", "FRA"]))

    # 4. Probes + measurements.
    probes = ProbePopulation(topology, ProbeParams(seed=2, num_probes=1500))
    engine = MeasurementEngine(topology, registry, seed=3)
    groups = group_probes(probes.all_probes())
    print(f"probes: {len(probes.usable_probes())} usable in {len(groups)} "
          f"<city, AS> groups")

    rows = []
    for label, prefix in (("global", global_prefix), ("EU-regional", regional_prefix)):
        addr = cdn.service_address(prefix)
        # One batch per target: {probe_id: PingResult}, in probe order.
        pings = engine.ping_many(probes.usable_probes(), addr)
        rtts = {
            pid: result.rtt_ms
            for pid, result in pings.items()
            if result.rtt_ms is not None
        }
        for area in AREAS:
            medians = [
                m for g in groups if g.area is area
                for m in [g.median(rtts)] if m is not None
            ]
            if medians:
                rows.append([
                    label, area.value, len(medians),
                    f"{percentile(medians, 50):.0f}",
                    f"{percentile(medians, 90):.0f}",
                ])

    # 5. Regional anycast keeps EMEA latency low; remote areas pay the
    #    detour to Europe — exactly why CDNs pair regions with DNS.
    print(render_table(["prefix", "area", "groups", "p50 ms", "p90 ms"], rows,
                       title="\ngroup-median RTT percentiles"))


if __name__ == "__main__":
    main()
