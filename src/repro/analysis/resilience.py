"""Site-withdrawal resilience analysis.

§4.5 establishes that regional prefixes are globally reachable, giving
regional anycast robustness: "even if DNS returns a regional IP
unintended for a client's geographic area, the client can still reach
the CDN site announcing [it]".  The same property underlies failover —
when a site withdraws its announcement, BGP reconverges and the site's
catchment redistributes to the surviving sites.

This module quantifies that: for each site of a deployment, withdraw it,
re-measure the probes it used to serve, and report where they land and
what the failover costs in latency.
"""

from __future__ import annotations

import statistics
from collections import Counter
from dataclasses import dataclass

from repro.anycast.network import AnycastNetwork
from repro.measurement.engine import MeasurementEngine
from repro.measurement.probes import Probe


@dataclass(frozen=True)
class SiteWithdrawalImpact:
    """Effect of withdrawing one site from an anycast announcement."""

    site_name: str
    #: Probes whose baseline catchment was this site.
    affected_probes: int
    #: Fraction of affected probes still served after withdrawal.
    reachable_fraction: float
    #: Mean RTT of affected probes before/after, in ms.
    mean_rtt_before_ms: float
    mean_rtt_after_ms: float
    #: Where the affected probes land after withdrawal (site name → count).
    failover_catchments: dict[str, int]


def site_withdrawal_study(
    network: AnycastNetwork,
    site_names: list[str],
    engine: MeasurementEngine,
    probes: list[Probe],
) -> list[SiteWithdrawalImpact]:
    """Withdraw each site in turn and measure the failover.

    The baseline is a fresh anycast announcement from all ``site_names``;
    each scenario announces a fresh prefix from the survivors.  All
    prefixes are registered with the engine's registry.
    """
    if len(site_names) < 2:
        raise ValueError("withdrawal study needs at least two sites")
    if not probes:
        raise ValueError("withdrawal study needs probes")

    def measure(sites: list[str]):
        announcement = network.announcement(
            network.allocate_service_prefix(), sites
        )
        if engine.registry.lookup(announcement.prefix.address(1)) is None:
            engine.registry.register(announcement)
        return engine.ping_many(probes, announcement.prefix.address(1))

    baseline = measure(list(site_names))
    site_of_node = {
        network.site(name).node_id: name for name in site_names
    }
    impacts: list[SiteWithdrawalImpact] = []
    for withdrawn in site_names:
        withdrawn_node = network.site(withdrawn).node_id
        affected = [
            p for p in probes
            if baseline[p.probe_id].catchment == withdrawn_node
        ]
        if not affected:
            impacts.append(
                SiteWithdrawalImpact(
                    site_name=withdrawn,
                    affected_probes=0,
                    reachable_fraction=1.0,
                    mean_rtt_before_ms=0.0,
                    mean_rtt_after_ms=0.0,
                    failover_catchments={},
                )
            )
            continue
        survivors = [s for s in site_names if s != withdrawn]
        after = measure(survivors)
        before_rtts = [baseline[p.probe_id].rtt_ms for p in affected]
        after_results = [after[p.probe_id] for p in affected]
        reachable = [r for r in after_results if r.reachable]
        catchments: Counter = Counter()
        for r in reachable:
            catchments[site_of_node.get(r.catchment, str(r.catchment))] += 1
        impacts.append(
            SiteWithdrawalImpact(
                site_name=withdrawn,
                affected_probes=len(affected),
                reachable_fraction=len(reachable) / len(affected),
                mean_rtt_before_ms=statistics.fmean(before_rtts),
                mean_rtt_after_ms=(
                    statistics.fmean(r.rtt_ms for r in reachable)
                    if reachable else float("inf")
                ),
                failover_catchments=dict(catchments),
            )
        )
    return impacts
