"""Table 6 (Appendix C) — representative vs other hostnames.

For each hostname set, compares the representative hostname's per-area
latency percentiles with the aggregate of 12 additional hostnames served
by the same platform.  In the paper (and here) the distributions are
close, showing the representative hostnames generalise.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.analysis.cdf import percentile
from repro.analysis.report import render_table
from repro.cdn.deployment import RegionalDeployment
from repro.dnssim.resolver import DnsMode
from repro.dnssim.service import GeoMappingService
from repro.experiments.world import World
from repro.geo.areas import AREAS, Area
from repro.measurement.probes import Probe
from repro.netaddr.ipv4 import IPv4Address

PERCENTILES = (50, 90, 95)
NUM_EXTRA_HOSTNAMES = 12


@dataclass
class Table6Result:
    experiment_id: str
    #: hostset → area → {percentile → (representative, others_aggregate)}.
    cells: dict[str, dict[Area, dict[int, tuple[float, float]]]] = field(
        default_factory=dict
    )

    def render(self) -> str:
        headers = ["Percentile", "Set", *(a.value for a in AREAS)]
        rows = []
        for p in PERCENTILES:
            for hostset, by_area in self.cells.items():
                row: list[object] = [f"{p}-th", hostset]
                for area in AREAS:
                    pair = by_area.get(area, {}).get(p)
                    row.append("-" if pair is None else f"{pair[0]:.0f} ({pair[1]:.0f})")
                rows.append(row)
        return render_table(
            headers, rows,
            title="== table6: representative (other hostnames) RTT, ms ==",
        )


def _area_rtts(
    world: World,
    deployment: RegionalDeployment,
    service: GeoMappingService,
    salt: object,
) -> dict[Area, list[float]]:
    answers = world.resolve_all(service, DnsMode.LDNS)
    # Each probe pings only its own DNS answer: one batch per answer.
    members: dict[IPv4Address, list[Probe]] = defaultdict(list)
    for probe in world.usable_probes:
        members[answers[probe.probe_id]].append(probe)
    per_probe: dict[int, float] = {}
    for addr, probes in members.items():
        for probe_id, ping in world.engine.ping_many(probes, addr, salt).items():
            if ping.rtt_ms is not None:
                per_probe[probe_id] = ping.rtt_ms
    by_area: dict[Area, list[float]] = {a: [] for a in AREAS}
    for group in world.groups:
        median = group.median(per_probe)
        if median is not None:
            by_area[group.area].append(median)
    return by_area


def run(world: World) -> Table6Result:
    result = Table6Result(experiment_id="table6")
    combos = [
        ("Edgio-3", world.edgio.eg3, world.eg3_service),
        ("Edgio-4", world.edgio.eg4, world.eg4_service),
        ("Imperva-6", world.imperva.im6, world.im6_service),
    ]
    for name, deployment, service in combos:
        representative = _area_rtts(world, deployment, service, salt=None)
        others: dict[Area, list[float]] = {a: [] for a in AREAS}
        for i in range(NUM_EXTRA_HOSTNAMES):
            extra = _area_rtts(
                world, deployment, service, salt=f"{name}-extra-{i:02d}"
            )
            for area in AREAS:
                others[area].extend(extra[area])
        by_area: dict[Area, dict[int, tuple[float, float]]] = {}
        for area in AREAS:
            if not representative[area] or not others[area]:
                continue
            by_area[area] = {
                p: (
                    percentile(representative[area], p),
                    percentile(others[area], p),
                )
                for p in PERCENTILES
            }
        result.cells[name] = by_area
    return result
