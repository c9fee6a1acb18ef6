"""Prefix-parallel routing: the one place work fans out to worker processes.

Each announcement's Gao-Rexford compute is independent of every other —
the classic embarrassing parallelism of anycast routing analysis (cf.
"Routing-Aware Partitioning of the Internet Address Space", which shards
server ranking along exactly this boundary).
:meth:`repro.routing.engine.RoutingEngine.compute_many` decides whether
to fan out; :func:`compute_fanout` then runs
:meth:`~repro.routing.engine.RoutingEngine.compute_uncached` for one
announcement per task on :func:`worker_count` processes.

The contract: **parallel execution must be invisible in the results**.
``Executor.map`` yields results in submission order and a task is a
pure function of its announcement, so a run with ``REPRO_WORKERS=8``
produces byte-identical tables to a serial one — only the wall clock
differs.

Workers use the ``fork`` start method where the platform offers it: the
parent stages the topology in a module global before the pool starts,
and the children inherit it copy-on-write, with no pickle and no
rebuild.  Elsewhere the topology ships once per worker through the pool
initializer.

When the parent is recording, each task runs under its own
``obs.recording("par.chunk")`` and returns that finished root span.  The
parent appends the chunks under ``par.merge`` in announcement order,
after the ``par.stage`` / ``par.fork`` / ``par.dispatch`` phase spans,
so a traced run's span tree shows where the parallel region's wall time
went and its counter totals equal a serial run's.
"""

from __future__ import annotations

import os
from typing import Iterable

from repro import obs
from repro.obs.recorder import _peak_rss_kib
from repro.routing.engine import RoutingEngine
from repro.routing.route import Announcement
from repro.routing.table import RoutingTable
from repro.topology.graph import Topology

#: Environment variable holding the worker count (serial when absent).
WORKERS_ENV = "REPRO_WORKERS"


def worker_count() -> int:
    """The worker count ``REPRO_WORKERS`` asks for (1 means serial).

    Unset, empty, ``0`` and ``1`` resolve to 1, so the default pipeline
    stays single-process.  A value that is not a non-negative integer
    (``abc``, ``-3``, ``2.5``) raises :class:`ValueError` naming the
    variable, rather than running serially without a word.
    """
    raw = os.environ.get(WORKERS_ENV, "").strip()
    if not raw:
        return 1
    try:
        value = int(raw)
    except ValueError:
        value = -1
    if value < 0:
        raise ValueError(
            f"{WORKERS_ENV}={raw!r} is not a worker count; use a "
            "non-negative integer (0 or 1 runs serially)"
        )
    return max(1, value)


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

    A recorder or provenance capture inherited across a ``fork`` belongs
    to the parent, and worker writes to it would be silently lost, so
    both are switched off before work arrives; tracing re-enters per
    task in :func:`_compute_task`.
    """
    from repro.explain import provenance

    global _WORKER_ENGINE
    obs.install(None)
    provenance.install(None)
    if topology is None:
        topology = _FORK_TOPOLOGY
    if topology is None:
        raise RuntimeError("routing worker started without a topology")
    _WORKER_ENGINE = RoutingEngine(topology)


def _compute_task(
    task: tuple[Announcement, bool],
) -> tuple[RoutingTable, obs.SpanRecord | None]:
    """Worker-side: one announcement's table, and its ``par.chunk`` span
    when the parent is recording."""
    announcement, record = task
    engine = _WORKER_ENGINE
    if engine is None:
        raise RuntimeError("routing worker used before initialization")
    if not record:
        return engine.compute_uncached(announcement), None
    with obs.recording("par.chunk") as recorder:
        table = engine.compute_uncached(announcement)
    # The finished root spans the task; peak RSS is the worker's own.
    chunk = recorder.root
    chunk.attrs["worker_rss_peak_kib"] = _peak_rss_kib()
    return table, chunk


def compute_fanout(
    topology: Topology,
    announcements: Iterable[Announcement],
) -> list[RoutingTable]:
    """Compute tables for many announcements across worker processes.

    Always starts a pool of ``min(worker_count(), len(announcements))``
    workers; whether fanning out pays is
    :meth:`~repro.routing.engine.RoutingEngine.compute_many`'s call.
    Results come back in announcement order and each table is
    byte-identical (under :func:`repro.par.cache.encode_table`) to what
    a serial ``compute`` would produce: per-announcement computation
    shares no state between announcements.
    """
    # Imported here, so that a serial run never loads the pool machinery.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    from repro.topology.flat import flat_adjacency

    global _FORK_TOPOLOGY
    recorder = obs.active()
    tasks = [(announcement, recorder is not None)
             for announcement in announcements]
    workers = min(worker_count(), len(tasks))
    forked = "fork" in multiprocessing.get_all_start_methods()
    with obs.span("par.stage", items=len(tasks)):
        # Flat adjacency and the full exit-km memo, built in the parent
        # before the pool forks: children inherit the packed arrays and
        # memo copy-on-write, so no worker recomputes a kilometre and no
        # topology-object pages get dirtied by memo writes.  (Spawn-style
        # pools ship the topology and rebuild per worker.)
        flat_adjacency(topology).precompute_km()
        if forked:
            _FORK_TOPOLOGY = topology
    try:
        # Workers fork lazily on first submit, so the real fork and
        # initializer cost lands inside par.dispatch, not par.fork.
        with obs.span("par.fork", workers=workers, tasks=len(tasks)):
            executor = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context(
                    "fork" if forked else None),
                initializer=_init_routing_worker,
                initargs=(None,) if forked else (topology,),
            )
        with executor, obs.span("par.dispatch", tasks=len(tasks),
                                workers=workers):
            outcomes = list(executor.map(_compute_task, tasks))
    finally:
        _FORK_TOPOLOGY = None
    with obs.span("par.merge", payloads=len(outcomes)):
        if recorder is not None:
            recorder.current.children.extend(
                chunk for _, chunk in outcomes if chunk is not None)
    return [table for table, _ in outcomes]
