"""§3.1's estimator choices, quantified.

The paper takes two methodological precautions against RIPE Atlas bias
and this experiment measures what each is worth:

1. **probe filtering** — discarding probes with unreliable geocodes or
   without stability tags: unreliable geocodes corrupt *distance*
   statistics (the probe's reported location is far from where its
   traffic actually originates);
2. **`<city, AS>` grouping** — reporting group medians instead of raw
   per-probe values: probe-dense networks would otherwise dominate the
   distribution.

The output compares the Imperva-NS latency/distance distributions under
each estimator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.cdf import EmpiricalCDF
from repro.analysis.report import render_table
from repro.experiments.world import World


@dataclass
class MethodologyResult:
    experiment_id: str
    #: estimator label → RTT CDF.
    rtt: dict[str, EmpiricalCDF] = field(default_factory=dict)
    #: Distance error (km) introduced by trusting *reported* geocodes of
    #: unreliable probes, per affected probe.
    geocode_distance_error_km: EmpiricalCDF | None = None
    #: Share of per-probe mass contributed by the 10 largest groups,
    #: before and after grouping.
    top10_group_share_per_probe: float = 0.0
    top10_group_share_per_group: float = 0.0

    def render(self) -> str:
        rows = [
            [label, len(cdf), f"{cdf.percentile(50):.0f}",
             f"{cdf.percentile(90):.0f}", f"{cdf.percentile(95):.0f}"]
            for label, cdf in self.rtt.items()
        ]
        table = render_table(
            ["Estimator", "n", "p50", "p90", "p95"],
            rows,
            title="== §3.1 methodology: estimator comparison (IM-NS RTT, ms) ==",
        )
        err = self.geocode_distance_error_km
        notes = (
            f"unreliable geocodes: median reported-location error "
            f"{err.percentile(50):.0f} km (p90 {err.percentile(90):.0f} km) "
            f"for the filtered probes\n"
            f"10 largest <city,AS> groups hold "
            f"{100.0 * self.top10_group_share_per_probe:.1f}% of per-probe "
            f"samples but {100.0 * self.top10_group_share_per_group:.1f}% of "
            f"group-median samples"
            if err is not None else ""
        )
        return f"{table}\n{notes}"


def run(world: World) -> MethodologyResult:
    result = MethodologyResult(experiment_id="methodology")
    addr = world.imperva.ns.address
    pings = world.ping_all(addr)

    # Estimator A: raw per-probe over usable probes.
    per_probe = [
        r.rtt_ms for r in pings.values() if r.rtt_ms is not None
    ]
    result.rtt["per-probe (usable)"] = EmpiricalCDF.of(per_probe)

    # Estimator B: the paper's group medians.
    rtts = {pid: r.rtt_ms for pid, r in pings.items() if r.rtt_ms is not None}
    group_medians = [
        m for g in world.groups for m in [g.median(rtts)] if m is not None
    ]
    result.rtt["group-median (paper)"] = EmpiricalCDF.of(group_medians)

    # Estimator C: per-probe including the probes §3.1 filters out.
    all_rtts = [
        r.rtt_ms
        for r in world.engine.ping_many(world.probes.all_probes(), addr).values()
        if r.rtt_ms is not None
    ]
    result.rtt["per-probe (unfiltered)"] = EmpiricalCDF.of(all_rtts)

    # Geocode-error magnitude among filtered probes.
    errors = [
        p.location.distance_km(p.reported_location)
        for p in world.probes.all_probes()
        if not p.geocode_reliable
    ]
    if errors:
        result.geocode_distance_error_km = EmpiricalCDF.of(errors)

    # Concentration: how much of the per-probe sample the biggest groups own.
    sizes = sorted((len(g.probes) for g in world.groups), reverse=True)
    total_probes = sum(sizes)
    if total_probes and world.groups:
        result.top10_group_share_per_probe = sum(sizes[:10]) / total_probes
        result.top10_group_share_per_group = min(10, len(sizes)) / len(sizes)
    return result
