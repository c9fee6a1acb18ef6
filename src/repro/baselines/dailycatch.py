"""DailyCatch: measured choice between two announcement configurations.

McQuistin et al. observed that an anycast operator can meaningfully
choose between announcing only to *transit providers* (BGP's customer
preference then pulls traffic predictably through provider cones) and
announcing to *everyone including peers* (shorter paths, but peer-route
preference can misdirect).  DailyCatch measures both and keeps the
better one.

Here both configurations are expressed as neighbor-restricted
announcements of the same network's sites; client latency is measured
from the probe population, and the configuration with the lower value of
the chosen statistic wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.analysis.cdf import percentile
from repro.anycast.network import AnycastNetwork
from repro.measurement.engine import MeasurementEngine
from repro.measurement.probes import Probe
from repro.netaddr.ipv4 import IPv4Address


@dataclass(frozen=True)
class DailyCatchResult:
    """Outcome of one DailyCatch decision."""

    chosen: str  # "transit-only" or "all-neighbors"
    transit_only_addr: IPv4Address
    all_neighbors_addr: IPv4Address
    #: Per-configuration values of the decision statistic.
    transit_only_metric: float
    all_neighbors_metric: float
    #: Per-probe RTTs under each configuration (probe id → ms).
    transit_only_rtts: dict[int, float]
    all_neighbors_rtts: dict[int, float]

    @property
    def chosen_addr(self) -> IPv4Address:
        return (
            self.transit_only_addr
            if self.chosen == "transit-only"
            else self.all_neighbors_addr
        )

    @property
    def chosen_rtts(self) -> dict[int, float]:
        return (
            self.transit_only_rtts
            if self.chosen == "transit-only"
            else self.all_neighbors_rtts
        )


def _default_metric(rtts: dict[int, float]) -> float:
    """DailyCatch optimises the latency distribution; we use the 90th
    percentile, the tail statistic the paper reports throughout."""
    if not rtts:
        return float("inf")
    return percentile(list(rtts.values()), 90)


def run_dailycatch(
    network: AnycastNetwork,
    site_names: list[str],
    engine: MeasurementEngine,
    probes: list[Probe],
    metric: Callable[[dict[int, float]], float] | None = None,
) -> DailyCatchResult:
    """Measure both configurations and return the decision.

    Two fresh service prefixes are allocated and announced: one restricted
    to each site's transit providers, one unrestricted.  Both are
    registered with the engine's service registry so results stay
    pingable afterwards.
    """
    if not site_names:
        raise ValueError("DailyCatch needs at least one site")
    if not probes:
        raise ValueError("DailyCatch needs probes to measure with")
    metric = metric or _default_metric
    transit_restriction = {
        name: frozenset(network.site(name).provider_ids) for name in site_names
    }
    configs = {
        "transit-only": network.announcement(
            network.allocate_service_prefix(), site_names,
            neighbor_restriction=transit_restriction,
        ),
        "all-neighbors": network.announcement(
            network.allocate_service_prefix(), site_names
        ),
    }
    rtts: dict[str, dict[int, float]] = {}
    addrs: dict[str, IPv4Address] = {}
    for label, announcement in configs.items():
        if engine.registry.lookup(announcement.prefix.address(1)) is None:
            engine.registry.register(announcement)
        addr = announcement.prefix.address(1)
        addrs[label] = addr
        rtts[label] = {
            pid: result.rtt_ms
            for pid, result in engine.ping_many(probes, addr).items()
            if result.rtt_ms is not None
        }
    metrics = {label: metric(values) for label, values in rtts.items()}
    chosen = min(metrics, key=lambda label: (metrics[label], label))
    return DailyCatchResult(
        chosen=chosen,
        transit_only_addr=addrs["transit-only"],
        all_neighbors_addr=addrs["all-neighbors"],
        transit_only_metric=metrics["transit-only"],
        all_neighbors_metric=metrics["all-neighbors"],
        transit_only_rtts=rtts["transit-only"],
        all_neighbors_rtts=rtts["all-neighbors"],
    )
