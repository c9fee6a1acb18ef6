"""Benchmark-side layer wrappers with self-time accounting.

A traced benchmark run replaces each layer's public function with a thin
wrapper that times it.  Each wrapper charges its *self* time to its layer:
the call's wall time minus the wall time of wrapped calls nested inside
it.  Time outside every wrapper is charged to the root, so

    sum(self time of every layer) + root self time == traced wall time

holds by construction.  Every patched name is restored on exit.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable

from repro.experiments.base import experiment_name
from repro.experiments.runner import ALL_EXPERIMENTS

ROOT = "<root>"


@dataclass
class LayerStats:
    """What the wrappers saw of one layer."""

    calls: int = 0
    self_s: float = 0.0
    #: Wall time with nested wrapped calls included (no wrapped layer
    #: calls itself, so nothing is counted twice).
    total_s: float = 0.0
    #: Calls that made no nested wrapped call (a cache hit, for the
    #: ``world.*_all`` layers).
    leaf_calls: int = 0
    #: Sum of the ``count`` hook over results (routes, hops, ...).
    items: float = 0.0



class _Frame:
    __slots__ = ("name", "start", "nested_s", "children")

    def __init__(self, name: str, start: float):
        self.name = name
        self.start = start
        self.nested_s = 0.0
        self.children = 0


class Tracer:
    """Stack of open wrapped calls plus per-layer totals."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stats: dict[str, LayerStats] = {}
        self._stack: list[_Frame] = []
        self.wall_s = 0.0

    def start(self) -> None:
        self._stack = [_Frame(ROOT, self.clock())]

    def stop(self) -> None:
        """Close the root frame; its self time is the unattributed time."""
        root = self._stack.pop()
        if self._stack or root.name != ROOT:
            raise RuntimeError("tracer stopped inside a wrapped call")
        self.wall_s = self.clock() - root.start
        stats = self.stats.setdefault(ROOT, LayerStats())
        stats.calls += 1
        stats.self_s += self.wall_s - root.nested_s
        stats.total_s += self.wall_s

    def snapshot(self) -> dict[str, LayerStats]:
        return {name: replace(s) for name, s in self.stats.items()}

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        *,
        count: Callable[[Any], float] | None = None,
        fold_under: tuple[str, ...] = (),
    ) -> Callable[..., Any]:
        """``fn`` timed as layer ``name``.

        ``count(result)`` adds to the layer's ``items``.  A call made
        directly under a layer named in ``fold_under`` is not timed on
        its own: its time stays with that enclosing layer.
        """
        clock = self.clock
        stats = self.stats.setdefault(name, LayerStats())

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            if parent.name in fold_under:
                return fn(*args, **kwargs)
            frame = _Frame(name, clock())
            stack.append(frame)
            parent.children += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - frame.start
                stack.pop()
                parent.nested_s += elapsed
                stats.calls += 1
                stats.self_s += elapsed - frame.nested_s
                stats.total_s += elapsed
                if frame.children == 0:
                    stats.leaf_calls += 1
            if count is not None:
                stats.items += count(result)
            return result

        return wrapper


@dataclass(frozen=True)
class Patch:
    """One layer: the attribute(s) to wrap, all under one layer name.

    ``sites`` are ``(module path, class name or None, attribute)``;
    list every place a caller looks the name up.
    """

    layer: str
    sites: tuple[tuple[str, str | None, str], ...]
    count: Callable[[Any], float] | None = None
    fold_under: tuple[str, ...] = ()


def _owner(module: str, cls: str | None) -> Any:
    owner: Any = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


@dataclass
class Installed:
    """Wrappers in place; :meth:`restore` puts every original back."""

    originals: list[tuple[Any, str, Any]] = field(default_factory=list)

    def restore(self) -> None:
        for owner, attr, original in reversed(self.originals):
            setattr(owner, attr, original)
        self.originals.clear()


def install(tracer: Tracer, patches: Iterable[Patch]) -> Installed:
    installed = Installed()
    try:
        for patch in patches:
            for module, cls, attr in patch.sites:
                owner = _owner(module, cls)
                # Only names the owner defines itself: restoring an
                # inherited one would shadow it with a copy.
                original = vars(owner)[attr]
                installed.originals.append((owner, attr, original))
                setattr(owner, attr, tracer.wrap(
                    patch.layer, original, count=patch.count,
                    fold_under=patch.fold_under,
                ))
    except BaseException:
        installed.restore()
        raise
    return installed


def unpatched(patches: Iterable[Patch]) -> list[str]:
    """Names still wrapped (empty once every original is restored)."""
    left = []
    for patch in patches:
        for module, cls, attr in patch.sites:
            value = vars(_owner(module, cls))[attr]
            if hasattr(value, "__wrapped__"):
                left.append(f"{module}.{cls + '.' if cls else ''}{attr}")
    return left


#: Layers that only run while a world is built; reported as ``<layer>.s``.
SETUP_LAYERS = ("topology.build", "topology.flat_adjacency", "cdn.build",
                "measurement.probes", "geoloc.build", "dnssim.pool")


def reconcile_error(stats: dict[str, LayerStats], wall_s: float) -> float:
    """|sum of every self time, root included, - wall| as a share of wall."""
    total = sum(s.self_s for s in stats.values())
    return abs(total - wall_s) / wall_s if wall_s > 0 else 0.0


def ledger(final: dict[str, LayerStats], setup: dict[str, LayerStats],
           wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    ``setup`` is the snapshot taken when the world was built: routing
    computes before it are the world's batch precompute
    (``routing.precompute.s``), the ``routing.compute.*`` figures count
    only the ones after it.  Times are self times unless named
    otherwise; ``obs.health.s`` includes what health re-runs.
    """
    empty = LayerStats()

    def per(amount: float, calls: int, scale: float = 1.0) -> float:
        return amount / calls * scale if calls else 0.0

    out: dict[str, float] = {}
    for layer in SETUP_LAYERS:
        out[f"{layer}.s"] = final.get(layer, empty).self_s
    compute = final.get("routing.compute", empty)
    precompute = setup.get("routing.compute", empty)
    out["routing.precompute.s"] = precompute.self_s
    for layer, unit, scale in (("measurement.ping", "us_per_call", 1e6),
                               ("measurement.traceroute", "us_per_call",
                                1e6)):
        stats = final.get(layer, empty)
        out[f"{layer}.calls"] = stats.calls
        out[f"{layer}.{unit}"] = per(stats.self_s, stats.calls, scale)
        out[f"{layer}.self_s"] = stats.self_s
    walks = final.get("routing.forwarding", empty)
    out["routing.forwarding.walks"] = walks.calls
    out["routing.forwarding.us_per_walk"] = per(walks.self_s, walks.calls,
                                                1e6)
    out["routing.forwarding.hops_per_walk"] = per(walks.items, walks.calls)
    pings = final.get("world.ping_all", empty)
    out["world.ping_all.calls"] = pings.calls
    out["world.ping_all.hit_ratio"] = per(pings.leaf_calls, pings.calls)
    traces = final.get("world.trace_all", empty)
    out["world.trace_all.hit_ratio"] = per(traces.leaf_calls, traces.calls)
    out["world.observations.self_s"] = final.get("world.observations",
                                                 empty).self_s
    sitemap = final.get("sitemap.map_traces", empty)
    out["sitemap.map_traces.calls"] = sitemap.calls
    out["sitemap.map_traces.ms_per_call"] = per(sitemap.self_s,
                                                sitemap.calls, 1e3)
    resolve = final.get("dnssim.resolve", empty)
    out["dnssim.resolve.calls"] = resolve.calls
    out["dnssim.resolve.us_per_call"] = per(resolve.self_s, resolve.calls,
                                            1e6)
    calls = compute.calls - precompute.calls
    self_s = compute.self_s - precompute.self_s
    out["routing.compute.calls"] = calls
    out["routing.compute.ms_per_call"] = per(self_s, calls, 1e3)
    out["routing.compute.self_s"] = self_s
    out["routing.routes"] = compute.items
    for layer in ("par.cache.store", "par.cache.load"):
        stats = final.get(layer, empty)
        out[f"{layer}.ms_per_call"] = per(stats.self_s, stats.calls, 1e3)
    for module, _ in ALL_EXPERIMENTS:
        layer = f"experiments.{experiment_name(module)}"
        out[f"{layer}.self_s"] = final.get(layer, empty).self_s
    out["obs.health.s"] = final.get("obs.health", empty).total_s
    out["unattributed_frac"] = (final.get(ROOT, empty).self_s / wall_s
                                if wall_s > 0 else 0.0)
    return out


def _routes(table: Any) -> float:
    return float(table.num_routes())


def _hops(path: Any) -> float:
    return float(len(path.hops)) if path is not None else 0.0


def _sites(module: str, *names: str, cls: str | None = None
           ) -> tuple[tuple[str, str | None, str], ...]:
    return tuple((module, cls, name) for name in names)


#: Every wrapped layer.  Names follow the ``repro`` package layout.
LAYERS: tuple[Patch, ...] = (
    # World set-up.
    Patch("topology.build",
          _sites("repro.topology.builder", "build", cls="InternetBuilder")),
    Patch("topology.flat_adjacency",
          _sites("repro.topology.flat", "flat_adjacency")),
    Patch("cdn.build",
          _sites("repro.experiments.world",
                 "build_edgio", "build_imperva", "build_tangled")
          + _sites("repro.cdn.edgio", "build_edgio")
          + _sites("repro.cdn.imperva", "build_imperva")
          + _sites("repro.tangled.testbed", "build_tangled")),
    Patch("measurement.probes",
          _sites("repro.measurement.probes", "__init__",
                 cls="ProbePopulation")),
    Patch("geoloc.build",
          _sites("repro.geoloc.oracle", "__init__", cls="GeoOracle")
          + _sites("repro.geoloc.database", "__init__", cls="GeoDatabase")
          + _sites("repro.geoloc.rdns", "__init__", cls="ReverseDNS")),
    Patch("dnssim.pool",
          _sites("repro.dnssim.resolver", "__init__", cls="ResolverPool")),
    # Measurement and forwarding.
    Patch("world.ping_all",
          _sites("repro.experiments.world", "ping_all", cls="World")),
    Patch("world.trace_all",
          _sites("repro.experiments.world", "trace_all", cls="World")),
    Patch("world.observations",
          _sites("repro.experiments.world", "observations_regional",
                 "observations_global", cls="World")),
    Patch("measurement.ping",
          _sites("repro.measurement.engine", "ping",
                 cls="MeasurementEngine")),
    Patch("measurement.traceroute",
          _sites("repro.measurement.engine", "traceroute",
                 cls="MeasurementEngine")),
    Patch("routing.forwarding",
          _sites("repro.measurement.engine", "trace_forwarding_path"),
          count=_hops),
    Patch("sitemap.map_traces",
          _sites("repro.sitemap.pipeline", "map_traces", cls="SiteMapper")),
    Patch("dnssim.resolve",
          _sites("repro.dnssim.resolver", "resolve", cls="ResolverPool")),
    # Routing and its on-disk cache.
    Patch("routing.compute",
          _sites("repro.routing.engine", "compute_uncached",
                 cls="RoutingEngine"),
          count=_routes),
    Patch("par.cache.store",
          _sites("repro.par.cache", "store", cls="RoutingTableCache")),
    Patch("par.cache.load",
          _sites("repro.par.cache", "load", cls="RoutingTableCache")),
    # Tracing health gauges; experiments it re-runs fold into it.
    Patch("obs.health", _sites("repro.obs.health", "record_health")),
    *(
        Patch(f"experiments.{experiment_name(module)}",
              ((module.__name__, None, "run"),),
              fold_under=("obs.health",))
        for module, _ in ALL_EXPERIMENTS
    ),
)
