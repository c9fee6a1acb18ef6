"""Domain-level health gauges for instrumented runs.

Spans and counters say where the time went; *health gauges* say whether
the run it produced is any good.  At the end of an instrumented run,
:func:`record_health` computes a small set of domain-level indicators
from the world that just ran and attaches them to the recording as
``health.*`` gauges, so every run manifest carries a quality fingerprint
next to its performance fingerprint:

- ``health.routing.cache_hit_rate`` — fraction of routing-table lookups
  served from the per-topology-version cache.  The measurement engine
  resolves each target address once per registry/topology snapshot, so
  a lookup is one address resolution, not one measurement;
- ``health.catchment.<deployment>.<region>.sites`` — distinct origin
  sites actually serving each region's prefix (a silently collapsed
  catchment is how reproductions rot);
- ``health.dns.mapping.*`` — Table-2-style mapping-accuracy fractions
  for the Imperva-6 hostname set under LDNS;
- ``health.claims.passed`` / ``health.claims.total`` — the paper-claim
  scorecard, as numbers a dashboard can plot, scored from the run's own
  results (``done``).  Health never runs an experiment, so a partial
  run (``repro run table3 --trace DIR``) records no claim gauges.

The heavy imports (experiments, analysis) happen inside the functions:
the obs package stays import-light, and no cycle forms with the modules
it measures.  ``repro obs dashboard`` re-reads these gauges from the
manifest via :func:`health_gauges`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from repro import obs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.world import World
    from repro.obs.manifest import RunManifest
    from repro.routing.engine import RoutingTable

#: Gauge-name prefix shared by everything this module emits.
HEALTH_PREFIX = "health."


def routing_health(world: "World") -> dict[str, float]:
    """Cache effectiveness of the shared routing engine."""
    engine = world.engine.routing
    hits, misses = engine.cache_stats()
    return {
        "health.routing.cache_hit_rate": engine.cache_hit_rate(),
        "health.routing.cache_lookups": float(hits + misses),
        "health.routing.tables_computed": float(misses),
    }


def catchment_health(world: "World") -> dict[str, float]:
    """Distinct serving sites per deployment region (plus the globals)."""
    gauges: dict[str, float] = {}
    regional = {
        "im6": world.imperva.im6,
        "eg3": world.edgio.eg3,
        "eg4": world.edgio.eg4,
    }
    for dep_name, deployment in regional.items():
        for region in deployment.region_names:
            table = world.engine.table_for(deployment.address_of_region(region))
            sites = 0
            if table is not None:
                sites = _distinct_origins(table)
            gauges[f"health.catchment.{dep_name}.{region}.sites"] = float(sites)
    table = world.engine.table_for(world.imperva.ns.address)
    if table is not None:
        gauges["health.catchment.ns.sites"] = float(_distinct_origins(table))
    return gauges


def _distinct_origins(table: "RoutingTable") -> int:
    """Origin sites of the table's primary routes, read without
    materializing a single route."""
    return len({table.catchment_of(node) for node in table.best})


def dns_health(world: "World") -> dict[str, float]:
    """Overall Table-2 mapping fractions for Imperva-6 under LDNS."""
    from repro.analysis.mapping import MappingClass
    from repro.dnssim.resolver import DnsMode
    from repro.experiments.table2 import mapping_efficiency

    efficiency = mapping_efficiency(
        world, world.imperva.im6, world.im6_service, DnsMode.LDNS
    )
    groups = efficiency.groups
    total = len(groups)
    gauges: dict[str, float] = {"health.dns.groups_classified": float(total)}
    keys = {
        MappingClass.EFFICIENT: "health.dns.mapping.efficient",
        MappingClass.REGION_SUBOPTIMAL: "health.dns.mapping.suboptimal",
        MappingClass.WRONG_REGION: "health.dns.mapping.wrong_region",
    }
    for outcome, key in keys.items():
        count = sum(1 for g in groups if g.outcome is outcome)
        gauges[key] = count / total if total else 0.0
    return gauges


def claims_health(
    world: "World", done: Mapping[str, object]
) -> dict[str, float]:
    """Scorecard pass/fail counts from ``done``; empty if it lacks any."""
    from repro.experiments.claims import experiments_needed, verify_claims

    if not experiments_needed() <= done.keys():
        return {}
    outcomes = verify_claims(world, done=done)
    passed = sum(1 for o in outcomes if o.passed)
    return {
        "health.claims.passed": float(passed),
        "health.claims.failed": float(len(outcomes) - passed),
        "health.claims.total": float(len(outcomes)),
    }


def collect_health(
    world: "World", done: Mapping[str, object] | None = None
) -> dict[str, float]:
    """All health gauges for one world, sorted by name.

    ``done`` maps experiment names to the run's finished results.
    """
    gauges: dict[str, float] = {}
    gauges.update(routing_health(world))
    gauges.update(catchment_health(world))
    gauges.update(dns_health(world))
    gauges.update(claims_health(world, done or {}))
    return dict(sorted(gauges.items()))


def record_health(
    world: "World", done: Mapping[str, object] | None = None
) -> dict[str, float]:
    """Compute health gauges under an ``obs.health`` span and emit them."""
    with obs.span("obs.health"):
        gauges = collect_health(world, done)
        for name, value in gauges.items():
            obs.gauge.set(name, value)
    return gauges


def health_gauges(manifest: "RunManifest") -> dict[str, float]:
    """The ``health.*`` gauges a traced run recorded, by name."""
    return {
        name: value
        for name, value in sorted(manifest.gauges().items())
        if name.startswith(HEALTH_PREFIX)
    }


def render_health(gauges: dict[str, float]) -> str:
    """Terminal table of health gauges (pass/fail summary first)."""
    if not gauges:
        return ("no health gauges recorded (trace a run with "
                "`repro run --trace DIR`)")
    lines = []
    passed = gauges.get("health.claims.passed")
    total = gauges.get("health.claims.total")
    if passed is not None and total:
        mark = "ok" if passed >= total else "FAIL"
        lines.append(f"claims    {passed:.0f}/{total:.0f} hold  [{mark}]")
    hit_rate = gauges.get("health.routing.cache_hit_rate")
    if hit_rate is not None:
        lines.append(f"routing   cache hit rate {100.0 * hit_rate:.1f}%")
    width = max(len(name) for name in gauges)
    lines.append("")
    for name, value in gauges.items():
        shown = int(value) if value == int(value) else round(value, 4)
        lines.append(f"  {name:{width}}  {shown}")
    return "\n".join(lines)
