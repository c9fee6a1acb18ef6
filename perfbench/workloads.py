"""The benchmark's workloads: world set-up, timed body and output checks.

Each workload drives the ``repro`` public API the way a user does.  The
set-up builds the world (or the topology and deployments), the body is
the timed work, and the checks run afterwards, outside every timed
region.  All of them only see an :class:`ExperimentConfig` derived from
the workload seed by :func:`seeded`.
"""

from __future__ import annotations

import contextlib
import hashlib
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Iterable

from repro import obs
from repro.cdn import edgio as cdn_edgio
from repro.cdn import imperva as cdn_imperva
from repro.dnssim.resolver import DnsMode
from repro.experiments import claims
from repro.experiments.base import experiment_name, run_instrumented
from repro.experiments.config import DEFAULT, LARGE, SMALL, ExperimentConfig
from repro.experiments.runner import ALL_EXPERIMENTS
from repro.experiments.world import World
from repro.measurement.engine import ServiceRegistry
from repro.obs import health
from repro.obs.manifest import tracing
from repro.par.cache import RoutingTableCache, tables_digest
from repro.routing.engine import RoutingEngine, RoutingTable
from repro.routing.route import Announcement
from repro.tangled import testbed
from repro.topology.builder import InternetBuilder
from repro.topology.graph import Topology

#: The seed at which digests are pinned; it reproduces the presets.
DEFAULT_SEED = 0

#: Digests at the default seed, from the commit that added the benchmark.
#: The ``routing-large`` one equals ``repro digest --config large``.
PINNED = {
    "paper-small":
        "ad9c4ae5dd56d866d4a940f1a771f246c4eb5662f72cdc72761bcce2333d28c5",
    "paper-small-traced":
        "ad9c4ae5dd56d866d4a940f1a771f246c4eb5662f72cdc72761bcce2333d28c5",
    "campaign-default":
        "940810b260246ffac1beaeec18c71348ec6d99a51ab48d891d413c35f3badce1",
    "routing-large":
        "c28ab2407228cdf1b63e8a0853ccd68483f4dd998a6c4128bcb5b577dc6b0e20",
}

_CONFIG_SEEDS = ("deployment_seed", "geodb_seed", "rdns_seed",
                 "resolver_seed", "measurement_seed", "survey_seed")


def seeded(preset: ExperimentConfig, seed: int) -> ExperimentConfig:
    """``preset`` with every seed shifted by ``seed`` (0 keeps it as is)."""
    return replace(
        preset,
        topology=replace(preset.topology, seed=preset.topology.seed + seed),
        probes=replace(preset.probes, seed=preset.probes.seed + seed),
        **{name: getattr(preset, name) + seed for name in _CONFIG_SEEDS},
    )


@dataclass
class Ops:
    """Operations attempted in one run, and the ones that failed.

    An operation fails when it raises or when its output check fails.
    """

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def run(self, name: str, fn: Callable[..., Any], *args: Any) -> Any:
        """``fn(*args)``, or None (and a failure) when it raises."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # a raising operation is a failed one
            self.failures.append(f"{name}: raised {type(exc).__name__}: {exc}")
            return None

    def check(self, name: str, fn: Callable[..., tuple[bool, str]],
              *args: Any) -> None:
        """Count one output check; ``fn`` returns ``(passed, detail)``."""
        outcome = self.run(name, fn, *args)
        if outcome is not None and not outcome[0]:
            self.failures.append(f"{name}: {outcome[1]}")


def _equal(actual: str, expected: str) -> tuple[bool, str]:
    return actual == expected, f"got {actual}, expected {expected}"


def _hexdigest(lines: Iterable[str]) -> str:
    hasher = hashlib.sha256()
    for line in lines:
        hasher.update(line.encode())
        hasher.update(b"\n")
    return hasher.hexdigest()


# ----------------------------------------------------------------------
# The routing batch: compute and store, then load in a fresh engine
# ----------------------------------------------------------------------

@dataclass
class RoutingBatch:
    cold_s: float
    warm_s: float
    engines: tuple[RoutingEngine, RoutingEngine]
    cache: RoutingTableCache
    cold: list[RoutingTable] | None
    warm: list[RoutingTable] | None


def routing_batch(topology: Topology, announcements: list[Announcement],
                  cache_dir: Path, ops: Ops) -> RoutingBatch:
    """Cold ``compute_many`` into an empty cache, then a warm load of it."""
    cache = RoutingTableCache(cache_dir)
    cold_engine = RoutingEngine(topology)
    cold_engine.persistent_cache = cache
    start = time.perf_counter()
    cold = ops.run("routing cold batch", cold_engine.compute_many,
                   announcements)
    middle = time.perf_counter()
    warm_engine = RoutingEngine(topology)
    warm_engine.persistent_cache = RoutingTableCache(cache_dir)
    warm = ops.run("routing warm batch", warm_engine.compute_many,
                   announcements)
    end = time.perf_counter()
    return RoutingBatch(middle - start, end - middle,
                        (cold_engine, warm_engine), cache, cold, warm)


def check_batch(batch: RoutingBatch, ops: Ops) -> str | None:
    """Cold and warm tables must match, and warm must compute nothing."""
    if batch.cold is None or batch.warm is None:
        return None
    cold = tables_digest(batch.cold)
    ops.check("routing cold == warm", _equal, tables_digest(batch.warm), cold)
    hits, misses = batch.engines[1].cache_stats()
    ops.check("routing warm leg loads every table",
              lambda: (misses == 0 and hits == len(batch.warm),
                       f"{hits} hits, {misses} misses"))
    return cold


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

@dataclass
class Outcome:
    """What a body leaves for the checks and the ledger."""

    digest_lines: list[str] = field(default_factory=list)
    results: dict[str, Any] = field(default_factory=dict)
    batch: RoutingBatch | None = None
    recorder: obs.Recorder | None = None


class Workload:
    name = ""
    preset: ExperimentConfig = DEFAULT

    def config(self, seed: int) -> ExperimentConfig:
        return seeded(self.preset, seed)

    def session(self, tmp: Path, cfg: ExperimentConfig
                ) -> contextlib.AbstractContextManager[obs.Recorder | None]:
        """Context around set-up and body (tracing, for the traced run)."""
        return contextlib.nullcontext()

    def setup(self, cfg: ExperimentConfig) -> Any:
        return World(cfg)

    def body(self, state: Any, ops: Ops, tmp: Path) -> Outcome:
        raise NotImplementedError

    def check(self, state: Any, outcome: Outcome, ops: Ops,
              pinned: bool) -> None:
        if pinned:
            ops.check(f"{self.name} digest", _equal,
                      _hexdigest(outcome.digest_lines), PINNED[self.name])


def _run_and_render(module: Any, description: str, world: World
                    ) -> tuple[Any, str]:
    result, _record = run_instrumented(module, description, world)
    return result, result.render()


class PaperRun(Workload):
    """``repro run --small``: every experiment, then its render."""

    name = "paper-small"
    preset = SMALL

    def __init__(self, experiments: tuple[tuple[Any, str], ...]
                 = ALL_EXPERIMENTS):
        self.experiments = experiments

    def body(self, state: World, ops: Ops, tmp: Path) -> Outcome:
        outcome = Outcome()
        with obs.span("experiments.run_all",
                      experiments=len(self.experiments)):
            for module, description in self.experiments:
                name = experiment_name(module)
                done = ops.run(name, _run_and_render, module, description,
                               state)
                if done is not None:
                    outcome.results[name] = done[0]
                    outcome.digest_lines.append(done[1])
        return outcome

    def check(self, state: World, outcome: Outcome, ops: Ops,
              pinned: bool) -> None:
        super().check(state, outcome, ops, pinned)
        if not pinned:
            # The claims are the paper's findings on the preset worlds;
            # another seed builds another Internet.
            return
        # Keyed like claims._Results, from this run's own results, so no
        # experiment runs again.
        by_key: dict[str, Any] = {"world": state}
        for key, module in claims._Results._MODULES.items():
            result = outcome.results.get(experiment_name(module))
            if result is not None:
                by_key[key] = result
        for claim in claims.ALL_CLAIMS:
            ops.check(f"claim {claim.claim_id}", claim.check, by_key)


class TracedPaperRun(PaperRun):
    """``repro run --small --trace DIR``: the same, plus obs and health."""

    name = "paper-small-traced"

    def session(self, tmp: Path, cfg: ExperimentConfig
                ) -> contextlib.AbstractContextManager[obs.Recorder | None]:
        return tracing(tmp / "trace", label="repro-run", config=cfg)

    def body(self, state: World, ops: Ops, tmp: Path) -> Outcome:
        outcome = super().body(state, ops, tmp)
        ops.run("obs.health", health.record_health, state)
        return outcome

    def check(self, state: World, outcome: Outcome, ops: Ops,
              pinned: bool) -> None:
        super().check(state, outcome, ops, pinned)
        recorder = outcome.recorder
        ops.check("trace manifest written", lambda: (
            recorder is not None and recorder.manifest_path is not None
            and recorder.manifest_path.is_file(), "no run manifest"))


class Campaign(Workload):
    """A §5.3 campaign on DEFAULT: DNS, pings, traceroutes, site maps."""

    name = "campaign-default"
    preset = DEFAULT

    @staticmethod
    def _regional(world: World) -> list[tuple[Any, Any]]:
        return [(world.edgio.eg3, world.eg3_service),
                (world.edgio.eg4, world.eg4_service),
                (world.imperva.im6, world.im6_service)]

    def body(self, state: World, ops: Ops, tmp: Path) -> Outcome:
        for deployment, service in self._regional(state):
            for mode in DnsMode:
                ops.run(f"observations {deployment.name} {mode.value}",
                        state.observations_regional, deployment, service,
                        mode)
            for addr in deployment.regional_addresses():
                ops.run(f"ping_all {addr}", state.ping_all, addr)
                ops.run(f"map_sites {addr}", state.map_sites_for_address,
                        addr, deployment.published_cities)
        ops.run("observations imperva-ns", state.observations_global,
                state.imperva.ns)
        return Outcome()

    def check(self, state: World, outcome: Outcome, ops: Ops,
              pinned: bool) -> None:
        outcome.digest_lines = ops.run("campaign answers",
                                       self._answers, state) or []
        super().check(state, outcome, ops, pinned)

    def _answers(self, world: World) -> list[str]:
        """Every DNS, ping, trace-hop and site answer, in a fixed order.

        Each is a cache hit on the world: the body measured all of them.
        """
        lines = []
        targets = []
        for deployment, service in self._regional(world):
            for mode in DnsMode:
                answers = world.resolve_all(service, mode)
                lines.extend(f"dns {service.hostname} {mode.value} {pid} {a}"
                             for pid, a in sorted(answers.items()))
            targets.extend((addr, deployment.published_cities)
                           for addr in deployment.regional_addresses())
        ns = world.imperva.ns
        targets.append((ns.address, ns.published_cities))
        for addr, published in targets:
            for pid, ping in sorted(world.ping_all(addr).items()):
                lines.append(f"ping {addr} {pid} {ping.rtt_ms!r} "
                             f"{ping.catchment}")
            for pid, trace in sorted(world.trace_all(addr).items()):
                hops = " ".join(f"{h.addr}/{h.rtt_ms!r}" for h in trace.hops)
                lines.append(f"trace {addr} {pid} {trace.reached} {hops}")
            mapping = world.map_sites_for_address(addr, published)
            for pid, city in sorted(mapping.catchment_site.items()):
                lines.append(f"site {addr} {pid} "
                             f"{city.iata if city else None}")
        return lines


@dataclass
class RoutingState:
    topology: Topology
    registry: ServiceRegistry


class RoutingLarge(Workload):
    """LARGE topology and deployments; a cold then a warm routing batch."""

    name = "routing-large"
    preset = LARGE

    def setup(self, cfg: ExperimentConfig) -> RoutingState:
        # The topology and deployment steps of World.__init__, in order.
        topology = InternetBuilder(cfg.topology).build()
        edgio = cdn_edgio.build_edgio(topology, seed=cfg.deployment_seed)
        imperva = cdn_imperva.build_imperva(topology,
                                            seed=cfg.deployment_seed + 1)
        tangled = testbed.build_tangled(topology,
                                        seed=cfg.deployment_seed + 2)
        registry = ServiceRegistry()
        for deployment in (edgio.eg3, edgio.eg4, imperva.im6, imperva.ns,
                           tangled):
            deployment.register(registry)
        return RoutingState(topology, registry)

    def body(self, state: RoutingState, ops: Ops, tmp: Path) -> Outcome:
        return Outcome(batch=routing_batch(
            state.topology, state.registry.announcements(),
            tmp / "routing-cache", ops))

    def check(self, state: RoutingState, outcome: Outcome, ops: Ops,
              pinned: bool) -> None:
        assert outcome.batch is not None
        digest = check_batch(outcome.batch, ops)
        if pinned and digest is not None:
            ops.check("routing-large digest", _equal, digest,
                      PINNED[self.name])


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (PaperRun(), TracedPaperRun(), Campaign(),
                        RoutingLarge())
}
