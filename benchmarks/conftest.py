"""Shared benchmark fixtures and the ``BENCH_obs.json`` writer.

Benchmarks run against the SMALL world so a full ``pytest benchmarks/
--benchmark-only`` pass stays under a few minutes.  The world (and its
measurement caches) is session-scoped: the first benchmark iteration of
each experiment pays the measurement cost, subsequent iterations measure
the analysis pipeline over cached measurements — which is also how the
experiments share work in production use.

Every benchmark test contributes to one artifact per session: an autouse
fixture records each test's per-round median from pytest-benchmark's
``benchmark.stats`` (a test without the ``benchmark`` fixture records
its wall), the experiment-suite bench adds its per-experiment span
timings through the ``bench_obs`` fixture, and
:func:`pytest_sessionfinish` writes the whole thing as
``BENCH_obs.json`` (path override: ``REPRO_BENCH_OBS``), replacing any
earlier file: a session records only what it measured.  The artifact's
label names the host's CPU count and model, so ``repro obs ingest`` /
``repro obs trend`` keep one history per kind of hardware.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

import pytest

from repro.experiments.config import LARGE, SMALL
from repro.experiments.world import World
from repro.obs.manifest import current_git_sha, new_run_id

#: Artifact layout version (see docs/observability.md).
BENCH_SCHEMA = 1

#: Worker count the ``_parallel`` benchmarks request.
BENCH_WORKERS = 4


@pytest.fixture(scope="session")
def world() -> World:
    w = World(SMALL)
    # Pre-warm the heavyweight shared caches so per-experiment benchmarks
    # measure comparable work.
    w.ping_all(w.imperva.ns.address)
    return w


@pytest.fixture(scope="session")
def large_routing():
    """LARGE-world routing inputs: topology plus every announcement.

    Builds only the layers the compute benchmarks exercise (topology and
    the three anycast deployments), skipping probes, geolocation, and
    DNS — a full LARGE :class:`World` build would dominate the session
    with state the par benchmarks never touch.
    """
    from repro.cdn.edgio import build_edgio
    from repro.cdn.imperva import build_imperva
    from repro.experiments.config import LARGE
    from repro.measurement.engine import ServiceRegistry
    from repro.tangled.testbed import build_tangled
    from repro.topology.builder import InternetBuilder

    topology = InternetBuilder(LARGE.topology).build()
    edgio = build_edgio(topology, seed=LARGE.deployment_seed)
    imperva = build_imperva(topology, seed=LARGE.deployment_seed + 1)
    tangled = build_tangled(topology, seed=LARGE.deployment_seed + 2)
    registry = ServiceRegistry()
    edgio.eg3.register(registry)
    edgio.eg4.register(registry)
    imperva.im6.register(registry)
    imperva.ns.register(registry)
    tangled.register(registry)
    return topology, registry.announcements()


@pytest.fixture(scope="session")
def bench_obs(request) -> dict:
    """The session collector behind ``BENCH_obs.json``.

    Keys: ``benchmarks`` (test name -> per-round median ms, filled
    automatically; see :func:`per_round_ms`), ``tiers`` (the world
    tiers those tests ran), ``experiments`` (experiment name -> wall/cpu
    ms, filled by the experiment-suite bench), ``counters``,
    ``total_wall_ms``.  The collector is stashed on the pytest config so
    :func:`pytest_sessionfinish` can write it after teardown.
    """
    collector = {
        "benchmarks": {},
        "tiers": set(),
        "experiments": {},
        "counters": {},
        "total_wall_ms": 0.0,
    }
    request.config._bench_obs = collector
    return collector


def per_round_ms(benchmark, wall_ms: float) -> float:
    """A test's per-round median in ms, or ``wall_ms`` without one.

    The median leaves out calibration and warm-up rounds and whatever
    the test does around the timed call, such as a digest check.
    ``benchmark`` is the test's pytest-benchmark fixture (None when the
    test has none); its ``stats`` stay empty when benchmarking is off.
    """
    stats = getattr(benchmark, "stats", None)
    if not stats:
        return wall_ms
    return stats.stats.median * 1000.0


def host_label() -> str:
    """``bench <cpus>x <model>``: the trend history keys runs by host."""
    model = platform.machine() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"bench {os.cpu_count()}x {model}"


@pytest.fixture(autouse=True)
def _collect_bench_timing(request, bench_obs):
    """Record every benchmark test into the session collector."""
    start = time.perf_counter()
    yield
    wall_ms = (time.perf_counter() - start) * 1000.0
    benchmark = request.node.funcargs.get("benchmark")
    bench_obs["benchmarks"][request.node.name] = round(
        per_round_ms(benchmark, wall_ms), 3
    )
    bench_obs["tiers"].add(
        LARGE.name if "large_routing" in request.fixturenames else SMALL.name
    )
    bench_obs["total_wall_ms"] += wall_ms


def bench_artifact_path() -> Path:
    return Path(os.environ.get("REPRO_BENCH_OBS", "BENCH_obs.json"))


def pytest_sessionfinish(session, exitstatus):
    """Write the artifact once, after the bench session."""
    collector = getattr(session.config, "_bench_obs", None)
    if not collector or not collector["benchmarks"]:
        return
    artifact = {
        "schema": BENCH_SCHEMA,
        # Stamped into the file so re-ingesting the same artifact (a CI
        # retry) dedupes by run id instead of double-counting.
        "run_id": new_run_id(),
        "label": host_label(),
        # A LARGE-only session (CI's large-world job) is stamped LARGE.
        # A session that also ran SMALL keeps SMALL's stamp: its LARGE
        # tests name their tier.
        "config": (LARGE.name if collector["tiers"] == {LARGE.name}
                   else SMALL.name),
        "git_sha": current_git_sha(),
        "total_wall_ms": round(collector["total_wall_ms"], 3),
        "experiments": collector["experiments"],
        "benchmarks": collector["benchmarks"],
        "counters": collector["counters"],
    }
    bench_artifact_path().write_text(
        json.dumps(artifact, indent=2) + "\n", encoding="utf-8"
    )
