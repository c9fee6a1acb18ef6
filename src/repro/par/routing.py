"""Prefix-parallel routing: fan per-announcement computes to workers.

Each announcement's Gao-Rexford compute is independent of every other —
the classic embarrassing parallelism of anycast routing analysis (cf.
"Routing-Aware Partitioning of the Internet Address Space", which shards
server ranking along exactly this boundary).  :func:`compute_fanout`
ships the topology once per worker through the pool initializer, runs
:meth:`repro.routing.engine.RoutingEngine.compute_uncached` for one
announcement per task, and returns the tables in announcement order.

Workers buffer their ``routing.compute`` spans and counters through
:mod:`repro.par.obsbuf`; the parent merges them in announcement order,
one ``par.chunk`` span per announcement, and brackets the pool
lifecycle with ``par.stage`` / ``par.fork`` / ``par.dispatch`` /
``par.merge`` phase spans, so a traced run's span tree shows where the
parallel region's wall time went.
"""

from __future__ import annotations

from typing import Iterable

from repro import obs
from repro.par.obsbuf import (
    WorkerPayload,
    finish_capture,
    merge_payload,
    start_capture,
)
from repro.routing.engine import RoutingEngine
from repro.routing.route import Announcement
from repro.routing.table import RoutingTable
from repro.topology.graph import Topology

_WORKER_ENGINE: RoutingEngine | None = None

#: Parent-side staging slot for ``fork`` pools: the parent parks the
#: topology here just before creating the pool, children inherit it
#: copy-on-write (no pickling), and the parent clears it afterwards.
#: Spawn-style pools ship the topology through ``initargs`` instead.
_FORK_TOPOLOGY: Topology | None = None


def _init_routing_worker(topology: Topology | None) -> None:
    """Build this worker's private engine; runs once per worker process.

    ``topology`` is None in forked workers — the staged parent global is
    used instead (page-shared, never serialised).

    Captures inherited across a ``fork`` (recorder, provenance) belong
    to the parent, so
    :func:`repro.par.pool.reset_worker_capture` disables them before
    work arrives; tracing re-enters per task through
    :func:`repro.par.obsbuf.start_capture`.
    """
    from repro.par.pool import reset_worker_capture

    global _WORKER_ENGINE
    reset_worker_capture()
    if topology is None:
        topology = _FORK_TOPOLOGY
    if topology is None:
        raise RuntimeError("routing worker started without a topology")
    _WORKER_ENGINE = RoutingEngine(topology)


def _compute_task(
    task: tuple[Announcement, bool],
) -> tuple[RoutingTable, WorkerPayload | None]:
    """Worker-side: compute one announcement's table, capturing obs."""
    announcement, record = task
    engine = _WORKER_ENGINE
    if engine is None:
        raise RuntimeError("routing worker used before initialization")
    recorder = start_capture(record)
    try:
        table = engine.compute_uncached(announcement)
    finally:
        payload = finish_capture(recorder)
    return table, payload


def compute_fanout(
    topology: Topology,
    announcements: Iterable[Announcement],
    workers: int | None = None,
) -> list[RoutingTable]:
    """Compute tables for many announcements across worker processes.

    Results come back in announcement order and each table is
    byte-identical (under :func:`repro.par.cache.encode_table`) to what
    a serial ``compute`` would produce: per-announcement computation
    shares no state between announcements.  Worker span/counter buffers
    are merged into the live recorder in the same order.
    """
    from repro.par.pool import map_deterministic, pool_context, worker_count

    global _FORK_TOPOLOGY
    announcements = list(announcements)
    if min(worker_count(workers), len(announcements)) <= 1:
        # Serial fallback in-process: map_deterministic's serial path
        # would not run the worker initializer.
        engine = RoutingEngine(topology)
        return [engine.compute_uncached(a) for a in announcements]
    record = obs.active() is not None
    with obs.span("par.stage", items=len(announcements)):
        # Flat adjacency and the full exit-km memo, built in the parent
        # before the pool forks: children inherit the packed arrays and
        # memo copy-on-write, so no worker recomputes a kilometre and no
        # topology-object pages get dirtied by memo writes.  (Spawn-style
        # pools ship the topology and rebuild per worker.)
        from repro.topology.flat import flat_adjacency

        adjacency = flat_adjacency(topology)
        adjacency.precompute_km()
        tasks = [(announcement, record) for announcement in announcements]
        forked = pool_context().get_start_method() == "fork"
        initargs: tuple[Topology | None] = (None,) if forked else (topology,)
        if forked:
            _FORK_TOPOLOGY = topology
    try:
        outcomes = map_deterministic(
            _compute_task,
            tasks,
            workers=workers,
            initializer=_init_routing_worker,
            initargs=initargs,
        )
    finally:
        _FORK_TOPOLOGY = None
    tables: list[RoutingTable] = []
    with obs.span("par.merge", payloads=len(outcomes)):
        for table, payload in outcomes:
            merge_payload(payload)
            tables.append(table)
    return tables
