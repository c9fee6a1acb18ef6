"""Benchmarks for repro.par: fan-out overhead and cache payoff.

Parallel speedups are hardware-dependent — a single-core CI runner
time-slices the workers and measures pure overhead — so every benchmark
records ``cpu_count`` in its ``extra_info`` and none asserts a speedup.
The warm-cache benchmarks are the exception that travels: skipping the
BGP computation entirely wins on any machine, core count aside.

Each ``_serial`` / ``_parallel`` pair is recorded as two per-round
medians (``REPRO_WORKERS`` unset, then set to ``BENCH_WORKERS``), so
the digest checks below run outside the recorded numbers.
``repro obs ingest`` derives ``bench.<name>.parallel_pct`` (parallel as
a percent of serial) from each pair, and ``repro obs trend --gate``
judges it against earlier runs on the same kind of host.
"""

from __future__ import annotations

import os

from conftest import BENCH_WORKERS

from repro.experiments.config import SMALL
from repro.experiments.world import World
from repro.par.cache import RoutingTableCache, tables_digest
from repro.par.routing import WORKERS_ENV
from repro.routing.engine import RoutingEngine


def _mark(benchmark) -> None:
    benchmark.extra_info["cpu_count"] = os.cpu_count()


def test_bench_compute_many_serial(benchmark, world, monkeypatch):
    """All SMALL-world announcements, one process (the baseline)."""
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    announcements = world.registry.announcements()

    def compute():
        return RoutingEngine(world.topology).compute_many(announcements)

    tables = benchmark(compute)
    _mark(benchmark)
    benchmark.extra_info["announcements"] = len(announcements)
    assert len(tables) == len(announcements)


def test_bench_compute_many_parallel(benchmark, world, monkeypatch):
    """The same batch fanned across worker processes."""
    monkeypatch.setenv(WORKERS_ENV, str(BENCH_WORKERS))
    announcements = world.registry.announcements()

    def compute():
        return RoutingEngine(world.topology).compute_many(announcements)

    tables = benchmark(compute)
    _mark(benchmark)
    benchmark.extra_info["workers"] = BENCH_WORKERS
    monkeypatch.delenv(WORKERS_ENV)
    serial = RoutingEngine(world.topology).compute_many(announcements)
    assert tables_digest(tables) == tables_digest(serial)


def test_bench_compute_many_large_serial(benchmark, large_routing,
                                         monkeypatch):
    """All LARGE-world announcements, one process.

    The LARGE tier (~5k ASes) is where per-announcement compute is meant
    to dominate fork/stage overhead; CI's ``large-world`` job enforces
    the trend gate on this pair's medians and their ratio.
    """
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    topology, announcements = large_routing

    def compute():
        return RoutingEngine(topology).compute_many(announcements)

    tables = benchmark.pedantic(compute, rounds=3, iterations=1,
                                warmup_rounds=1)
    _mark(benchmark)
    benchmark.extra_info["announcements"] = len(announcements)
    assert len(tables) == len(announcements)


def test_bench_compute_many_large_parallel(benchmark, large_routing,
                                           monkeypatch):
    """The LARGE batch fanned across worker processes."""
    monkeypatch.setenv(WORKERS_ENV, str(BENCH_WORKERS))
    topology, announcements = large_routing

    def compute():
        return RoutingEngine(topology).compute_many(announcements)

    tables = benchmark.pedantic(compute, rounds=3, iterations=1,
                                warmup_rounds=1)
    _mark(benchmark)
    benchmark.extra_info["workers"] = BENCH_WORKERS
    monkeypatch.delenv(WORKERS_ENV)
    serial = RoutingEngine(topology).compute_many(announcements)
    assert tables_digest(tables) == tables_digest(serial)


def test_bench_cache_cold(benchmark, world, tmp_path, monkeypatch):
    """Cold persistent cache: every table computed, then stored."""
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    announcements = world.registry.announcements()
    cache = RoutingTableCache(tmp_path)

    def cold():
        cache.clear()
        engine = RoutingEngine(world.topology)
        engine.persistent_cache = cache
        return engine.compute_many(announcements)

    tables = benchmark(cold)
    _mark(benchmark)
    assert len(cache.entries()) == len(tables)


def test_bench_cache_warm(benchmark, world, tmp_path, monkeypatch):
    """Warm persistent cache: every table decoded from disk, none computed."""
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    announcements = world.registry.announcements()
    warmer = RoutingEngine(world.topology)
    warmer.persistent_cache = RoutingTableCache(tmp_path)
    baseline = warmer.compute_many(announcements)

    def warm():
        engine = RoutingEngine(world.topology)
        engine.persistent_cache = RoutingTableCache(tmp_path)
        return engine.compute_many(announcements)

    tables = benchmark(warm)
    _mark(benchmark)
    assert tables_digest(tables) == tables_digest(baseline)


def test_bench_world_build_serial(benchmark, monkeypatch):
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    benchmark.pedantic(
        lambda: World(SMALL), rounds=3, iterations=1, warmup_rounds=0
    )
    _mark(benchmark)


def test_bench_world_build_parallel(benchmark, monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, str(BENCH_WORKERS))
    benchmark.pedantic(
        lambda: World(SMALL), rounds=3, iterations=1, warmup_rounds=0
    )
    _mark(benchmark)
    benchmark.extra_info["workers"] = BENCH_WORKERS
