"""Probe-fleet fan-out: pings, traceroutes, and DNS across workers.

The probe-fleet loops in :class:`repro.experiments.world.World` measure
hundreds of probes against one target; every per-probe measurement is a
pure function of (probe, target, world state), so the fleet splits
cleanly into contiguous probe-index chunks — the same per-vantage-point
fan-out Tangled's testbed runs concurrently against its sites.

A :class:`FleetPool` keeps one :class:`~concurrent.futures
.ProcessPoolExecutor` alive for the world's lifetime.  The heavy state
(measurement engine with its warm routing cache, the usable-probe list,
the resolver pool, the geo-mapping services) is shipped exactly once per
worker through the pool initializer; per-task payloads are just
``(lo, hi, target)`` index ranges.  Chunk results are concatenated in
probe order, so the returned dicts are equal to the serial loops'.

Determinism caveat handled here: resolver profiles and routing tables
must be assigned *before* the pool forks, otherwise each worker would
lazily re-derive them — computing its own copy of every new table — and
the ``dns.resolver_assignments`` / ``routing.compute`` totals would
depend on which worker served which chunk.  :meth:`FleetPool.__init__`
therefore warms the resolver pool in the parent, and
:meth:`repro.experiments.world.World._fleet` computes every registered
announcement's table before it creates a pool.

One exception is accepted: each worker fills its own copy of the
measurement engine's forwarding memo (:mod:`repro.measurement.engine`).
Results never depend on it, but the ``forwarding.*`` counters and the
per-address ``routing.cache_hits`` count memo misses, so their totals
depend on how chunks land on workers.
"""

from __future__ import annotations

from concurrent.futures import Executor, ProcessPoolExecutor
from itertools import count
from typing import Any, Callable

from repro import obs
from repro.dnssim.resolver import DnsMode, ResolverPool
from repro.dnssim.service import GeoMappingService
from repro.measurement.engine import (
    MeasurementEngine,
    PingResult,
    TracerouteResult,
)
from repro.measurement.probes import Probe
from repro.netaddr.ipv4 import IPv4Address
from repro.par.obsbuf import (
    WorkerPayload,
    finish_capture,
    merge_payload,
    start_capture,
)
from repro.par.pool import CHUNKS_PER_WORKER, chunk_ranges, pool_context

_ENGINE: MeasurementEngine | None = None
_PROBES: list[Probe] = []
_RESOLVERS: ResolverPool | None = None
_SERVICES: dict[str, GeoMappingService] = {}

FleetState = tuple[
    MeasurementEngine,
    list[Probe],
    ResolverPool,
    dict[str, GeoMappingService],
]

#: Parent-side staging registry for ``fork`` pools (cf. the single-shot
#: slot in :mod:`repro.par.routing`): children inherit the world state
#: copy-on-write instead of unpickling it through ``initargs``.  Entries
#: live as long as their pool — a persistent executor forks workers
#: lazily, possibly long after :class:`FleetPool` construction — and are
#: dropped by :meth:`FleetPool.close`.
_FORK_STATES: dict[int, FleetState] = {}
_FORK_KEYS = count(1)


def _init_fleet_worker(state: FleetState | None, fork_key: int) -> None:
    """Receive the world state; runs once per worker process.

    ``state`` is None in forked workers — the parent's staged registry
    entry for ``fork_key`` is used instead (page-shared, never
    serialised).

    Captures inherited across a ``fork`` (recorder, provenance,
    tracemalloc) belong to the parent, so
    :func:`repro.par.pool.reset_worker_capture` disables them up front;
    tracing re-enters per task through
    :func:`repro.par.obsbuf.start_capture`.
    """
    from repro.par.pool import reset_worker_capture

    global _ENGINE, _PROBES, _RESOLVERS, _SERVICES
    reset_worker_capture()
    if state is None:
        state = _FORK_STATES.get(fork_key)
    if state is None:
        raise RuntimeError("fleet worker started without world state")
    _ENGINE, _PROBES, _RESOLVERS, _SERVICES = state


def _worker_engine() -> MeasurementEngine:
    if _ENGINE is None:
        raise RuntimeError("fleet worker used before initialization")
    return _ENGINE


def _ping_chunk(
    task: tuple[int, int, IPv4Address, object, bool, int],
) -> tuple[list[PingResult], WorkerPayload | None]:
    lo, hi, addr, salt, record, chunk_index = task
    engine = _worker_engine()
    recorder = start_capture(record, chunk_index=chunk_index)
    try:
        results = [engine.ping(p, addr, salt=salt) for p in _PROBES[lo:hi]]
    finally:
        payload = finish_capture(recorder)
    return results, payload


def _trace_chunk(
    task: tuple[int, int, IPv4Address, bool, int],
) -> tuple[list[TracerouteResult], WorkerPayload | None]:
    lo, hi, addr, record, chunk_index = task
    engine = _worker_engine()
    recorder = start_capture(record, chunk_index=chunk_index)
    try:
        results = [engine.traceroute(p, addr) for p in _PROBES[lo:hi]]
    finally:
        payload = finish_capture(recorder)
    return results, payload


def _resolve_chunk(
    task: tuple[int, int, str, DnsMode, bool, int],
) -> tuple[list[IPv4Address], WorkerPayload | None]:
    lo, hi, hostname, mode, record, chunk_index = task
    resolvers = _RESOLVERS
    if resolvers is None:
        raise RuntimeError("fleet worker used before initialization")
    service = _SERVICES[hostname]
    recorder = start_capture(record, chunk_index=chunk_index)
    try:
        results = [
            resolvers.resolve(service, p, mode) for p in _PROBES[lo:hi]
        ]
    finally:
        payload = finish_capture(recorder)
    return results, payload


class FleetPool:
    """A persistent worker pool bound to one world's probe fleet."""

    def __init__(
        self,
        engine: MeasurementEngine,
        probes: list[Probe],
        resolvers: ResolverPool,
        services: dict[str, GeoMappingService],
        workers: int,
    ):
        # Assign every probe's resolver profile in the parent before the
        # pool starts, so workers inherit a fully warmed pool and counter
        # totals stay identical to a serial run (see module docstring).
        with obs.span("par.stage", probes=len(probes)):
            for probe in probes:
                resolvers.profile_for(probe)
            self._probes = probes
            self._hostnames = frozenset(services)
            self._workers = workers
            self._num_chunks = workers * CHUNKS_PER_WORKER
            state: FleetState = (engine, probes, resolvers, services)
            context = pool_context()
            self._fork_key = 0
            initargs: tuple[FleetState | None, int] = (state, 0)
            if context.get_start_method() == "fork":
                self._fork_key = next(_FORK_KEYS)
                _FORK_STATES[self._fork_key] = state
                initargs = (None, self._fork_key)
        try:
            with obs.span("par.fork", workers=workers):
                self._executor: Executor = ProcessPoolExecutor(
                    max_workers=workers,
                    mp_context=context,
                    initializer=_init_fleet_worker,
                    initargs=initargs,
                )
        except BaseException:
            # A failed executor start must not leave the staged state
            # behind: nothing will ever pop it (close() is unreachable
            # on a half-built pool), and the leaked engine/probes would
            # pin a full world in parent memory for the process life.
            _FORK_STATES.pop(self._fork_key, None)
            raise

    # ------------------------------------------------------------------
    def _run(
        self,
        fn: Callable[[Any], tuple[list[Any], WorkerPayload | None]],
        tasks: list[Any],
    ) -> dict[int, Any]:
        """Ordered fan-out: run chunk tasks, merge obs, key by probe id."""
        with obs.span("par.dispatch", tasks=len(tasks), workers=self._workers):
            outcomes = list(self._executor.map(fn, tasks))
        flat: list[Any] = []
        with obs.span("par.merge", payloads=len(outcomes)):
            for chunk_results, payload in outcomes:
                merge_payload(payload)
                flat.extend(chunk_results)
        return {
            probe.probe_id: result
            for probe, result in zip(self._probes, flat)
        }

    def _ranges(self) -> list[tuple[int, int]]:
        return chunk_ranges(len(self._probes), self._num_chunks)

    # ------------------------------------------------------------------
    def ping_all(
        self, addr: IPv4Address, salt: object = None
    ) -> dict[int, PingResult]:
        record = obs.active() is not None
        tasks = [
            (lo, hi, addr, salt, record, index)
            for index, (lo, hi) in enumerate(self._ranges())
        ]
        return self._run(_ping_chunk, tasks)

    def trace_all(self, addr: IPv4Address) -> dict[int, TracerouteResult]:
        record = obs.active() is not None
        tasks = [
            (lo, hi, addr, record, index)
            for index, (lo, hi) in enumerate(self._ranges())
        ]
        return self._run(_trace_chunk, tasks)

    def resolve_all(
        self, service: GeoMappingService, mode: DnsMode
    ) -> dict[int, IPv4Address] | None:
        """Parallel resolve, or None when the service was not shipped.

        Only the services known at pool creation live in the workers;
        anything else (an ad-hoc service built inside an experiment)
        falls back to the caller's serial loop.
        """
        if service.hostname not in self._hostnames:
            return None
        record = obs.active() is not None
        tasks = [
            (lo, hi, service.hostname, mode, record, index)
            for index, (lo, hi) in enumerate(self._ranges())
        ]
        return self._run(_resolve_chunk, tasks)

    # ------------------------------------------------------------------
    def close(self) -> None:
        self._executor.shutdown(wait=False, cancel_futures=True)
        _FORK_STATES.pop(self._fork_key, None)
