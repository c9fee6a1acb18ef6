"""AnyOpt-style site-subset optimisation for global anycast.

AnyOpt predicts the catchment of every candidate site configuration from
pairwise BGP experiments and picks the subset of sites minimising client
latency — counter-intuitively, *removing* sites can help, because a
poorly-connected site with a large policy-preferred catchment drags the
whole distribution down.

On the simulator, measuring a candidate deployment is cheap, so the
search evaluates candidates directly: greedy backward elimination from
the full site set, accepting any single-site removal that improves the
objective, until a local optimum is reached.  This keeps AnyOpt's
essential claim (site subsets beat all-sites) while replacing its
prediction machinery — which exists to avoid measurements the simulator
gets for free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.analysis.cdf import percentile
from repro.anycast.network import AnycastNetwork
from repro.measurement.engine import MeasurementEngine
from repro.measurement.probes import Probe
from repro.netaddr.ipv4 import IPv4Address


@dataclass(frozen=True)
class AnyOptResult:
    """Outcome of the site-subset search."""

    chosen_sites: tuple[str, ...]
    chosen_addr: IPv4Address
    chosen_metric: float
    all_sites_metric: float
    #: (site set size, metric) per accepted search step, for inspection.
    trajectory: tuple[tuple[int, float], ...]
    #: Per-probe RTTs of the chosen configuration.
    chosen_rtts: dict[int, float] = field(default_factory=dict)

    @property
    def improvement(self) -> float:
        """Fractional metric improvement over the all-sites deployment."""
        if self.all_sites_metric <= 0:
            return 0.0
        return (self.all_sites_metric - self.chosen_metric) / self.all_sites_metric


def _default_metric(rtts: dict[int, float]) -> float:
    if not rtts:
        return float("inf")
    return percentile(list(rtts.values()), 90)


def anyopt_site_search(
    network: AnycastNetwork,
    site_names: list[str],
    engine: MeasurementEngine,
    probes: list[Probe],
    metric: Callable[[dict[int, float]], float] | None = None,
    min_sites: int = 2,
    max_evaluations: int = 64,
) -> AnyOptResult:
    """Greedy backward elimination over announced site subsets."""
    if len(site_names) < min_sites:
        raise ValueError(
            f"need at least {min_sites} sites, got {len(site_names)}"
        )
    if not probes:
        raise ValueError("AnyOpt needs probes to measure with")
    metric = metric or _default_metric
    evaluations = 0

    def measure(sites: tuple[str, ...]) -> tuple[float, dict[int, float], IPv4Address]:
        nonlocal evaluations
        evaluations += 1
        announcement = network.announcement(
            network.allocate_service_prefix(), list(sites)
        )
        if engine.registry.lookup(announcement.prefix.address(1)) is None:
            engine.registry.register(announcement)
        addr = announcement.prefix.address(1)
        rtts = {
            pid: result.rtt_ms
            for pid, result in engine.ping_many(probes, addr).items()
            if result.rtt_ms is not None
        }
        return metric(rtts), rtts, addr

    current = tuple(sorted(site_names))
    current_metric, current_rtts, current_addr = measure(current)
    all_sites_metric = current_metric
    trajectory: list[tuple[int, float]] = [(len(current), current_metric)]
    improved = True
    while improved and len(current) > min_sites and evaluations < max_evaluations:
        improved = False
        best_candidate = None
        for removed in current:
            if evaluations >= max_evaluations:
                break
            candidate = tuple(s for s in current if s != removed)
            cand_metric, cand_rtts, cand_addr = measure(candidate)
            if cand_metric < current_metric - 1e-9 and (
                best_candidate is None or cand_metric < best_candidate[0]
            ):
                best_candidate = (cand_metric, candidate, cand_rtts, cand_addr)
        if best_candidate is not None:
            current_metric, current, current_rtts, current_addr = best_candidate
            trajectory.append((len(current), current_metric))
            improved = True
    return AnyOptResult(
        chosen_sites=current,
        chosen_addr=current_addr,
        chosen_metric=current_metric,
        all_sites_metric=all_sites_metric,
        trajectory=tuple(trajectory),
        chosen_rtts=current_rtts,
    )
