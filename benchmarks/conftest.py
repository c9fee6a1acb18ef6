"""Shared benchmark fixtures and the merged ``BENCH_obs.json`` writer.

Benchmarks run against the SMALL world so a full ``pytest benchmarks/
--benchmark-only`` pass stays under a few minutes.  The world (and its
measurement caches) is session-scoped: the first benchmark iteration of
each experiment pays the measurement cost, subsequent iterations measure
the analysis pipeline over cached measurements — which is also how the
experiments share work in production use.

Every benchmark test contributes to one merged artifact: an autouse
fixture times each test into the session collector, the experiment-suite
bench adds its per-experiment span timings through the ``bench_obs``
fixture, and :func:`pytest_sessionfinish` writes the whole thing as
``BENCH_obs.json`` (path override: ``REPRO_BENCH_OBS``).  The artifact
feeds ``repro obs ingest`` / ``repro obs trend``, so the benchmark
trajectory accumulates across CI runs.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.experiments.config import SMALL
from repro.experiments.world import World
from repro.obs.manifest import current_git_sha, new_run_id
from repro.par.pool import worker_count

#: Artifact layout version (see docs/observability.md).
BENCH_SCHEMA = 1

#: Worker count the parallel benchmarks request; stamped into the
#: artifact (and recorded next to the machine's real core count) so the
#: crossover analyzer (``repro obs speedup``) can key history by
#: hardware and worker count.
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
    """The session collector behind the merged ``BENCH_obs.json``.

    Keys: ``benchmarks`` (test name -> wall ms, filled automatically),
    ``experiments`` (experiment name -> wall/cpu ms, filled by the
    experiment-suite bench), ``counters``, ``total_wall_ms``.  The
    collector is stashed on the pytest config so
    :func:`pytest_sessionfinish` can write it after teardown.
    """
    collector = {
        "benchmarks": {},
        "experiments": {},
        "counters": {},
        "total_wall_ms": 0.0,
    }
    request.config._bench_obs = collector
    return collector


@pytest.fixture(autouse=True)
def _collect_bench_wall(request, bench_obs):
    """Time every benchmark test into the session collector."""
    start = time.perf_counter()
    yield
    wall_ms = (time.perf_counter() - start) * 1000.0
    bench_obs["benchmarks"][request.node.name] = round(wall_ms, 3)
    bench_obs["total_wall_ms"] += wall_ms


def bench_artifact_path() -> Path:
    return Path(os.environ.get("REPRO_BENCH_OBS", "BENCH_obs.json"))


def merge_bench_artifacts(existing: dict, fresh: dict) -> dict:
    """Merge a partial bench run into an existing artifact, by key.

    A single-module run (``pytest benchmarks/test_bench_par.py``) must
    never *shrink* an already-merged ``BENCH_obs.json``: the fresh run's
    per-key entries win, keys it did not touch survive, and
    ``total_wall_ms`` is recomputed from the merged benchmarks.  When
    the existing artifact is from another schema it cannot be read and
    the fresh artifact replaces it wholesale.  Artifacts stamped with
    different *configs* still merge by key — the crossover analyzer
    (:mod:`repro.obs.speedup`) derives each series' tier from the test
    name, not the artifact stamp, so no series is dropped; the
    artifact-level ``config`` stamp follows whichever run covers more
    benchmark keys.
    """
    if existing.get("schema") != fresh.get("schema"):
        return fresh
    merged = dict(fresh)
    for section in ("benchmarks", "experiments", "counters"):
        base = existing.get(section)
        update = fresh.get(section)
        if isinstance(base, dict) and isinstance(update, dict):
            merged[section] = {**base, **update}
    if existing.get("config") != fresh.get("config"):
        old_keys = existing.get("benchmarks")
        new_keys = fresh.get("benchmarks")
        if (isinstance(old_keys, dict) and isinstance(new_keys, dict)
                and len(new_keys) < len(old_keys)):
            merged["config"] = existing.get("config")
    benchmarks = merged.get("benchmarks")
    if isinstance(benchmarks, dict):
        merged["total_wall_ms"] = round(
            sum(float(v) for v in benchmarks.values()), 3
        )
    return merged


def pytest_sessionfinish(session, exitstatus):
    """Write (or merge into) the artifact once, after the bench session."""
    collector = getattr(session.config, "_bench_obs", None)
    if not collector or not collector["benchmarks"]:
        return
    workers = worker_count()
    artifact = {
        "schema": BENCH_SCHEMA,
        # Stamped into the file so re-ingesting the same artifact (a CI
        # retry) dedupes by run id instead of double-counting.
        "run_id": new_run_id(),
        "label": "bench",
        "config": SMALL.name,
        "git_sha": current_git_sha(),
        # Execution environment, so the crossover analyzer can group
        # comparable runs (see repro.obs.speedup).
        "cpu_count": os.cpu_count(),
        "workers": workers,
        "mode": "parallel" if workers > 1 else "serial",
        "bench_workers": BENCH_WORKERS,
        "total_wall_ms": round(collector["total_wall_ms"], 3),
        "experiments": collector["experiments"],
        "benchmarks": collector["benchmarks"],
        "counters": collector["counters"],
    }
    out = bench_artifact_path()
    if out.exists():
        try:
            existing = json.loads(out.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            existing = None
        if isinstance(existing, dict):
            artifact = merge_bench_artifacts(existing, artifact)
    out.write_text(json.dumps(artifact, indent=2) + "\n", encoding="utf-8")
