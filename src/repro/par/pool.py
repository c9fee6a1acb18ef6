"""Deterministic parallel-execution primitives.

Everything in :mod:`repro.par` follows one contract: **parallel execution
must be invisible in the results**.  Work is split into contiguous,
order-stable chunks, executed in worker processes, and merged back in
input order, so a run with ``REPRO_WORKERS=8`` produces byte-identical
tables, experiment outputs, and claim scorecards to a serial run — only
the wall clock differs.

The knob is the ``REPRO_WORKERS`` environment variable (or an explicit
``workers=`` argument).  Unset, empty, non-numeric, ``0``, and ``1`` all
mean *serial*: the seed behaviour of the pipeline is unchanged unless a
user opts in.

Worker processes are plain :class:`~concurrent.futures
.ProcessPoolExecutor` workers using the ``fork`` start method where the
platform offers it (cheap on Linux: the parent's pages are shared
copy-on-write, so shipping a topology costs one pickle, not a rebuild).
Callables submitted through :func:`map_deterministic` must be picklable
(module-level functions); per-worker state is shipped once through the
``initializer`` / ``initargs`` pair, never per task.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Iterable

from repro import obs

#: Environment variable holding the worker count (serial when absent).
WORKERS_ENV = "REPRO_WORKERS"

#: Target number of chunks handed to each worker; >1 keeps the pool busy
#: when chunk costs are uneven without paying per-item dispatch overhead.
CHUNKS_PER_WORKER = 4


def worker_count(explicit: int | None = None) -> int:
    """Resolve the effective worker count (1 means serial).

    ``explicit`` wins when given; otherwise ``REPRO_WORKERS`` is read.
    Anything unset, unparsable, or below 2 resolves to 1, so the default
    pipeline stays single-process.
    """
    if explicit is not None:
        return max(1, explicit)
    raw = os.environ.get(WORKERS_ENV, "").strip()
    if not raw:
        return 1
    try:
        value = int(raw)
    except ValueError:
        return 1
    return max(1, value)


def capture_blocks_parallel() -> bool:
    """True when a process-local capture forces the serial path.

    Two captures cannot survive a process boundary: decision provenance
    (selection trails land in a process-local recorder) and the span
    profiler (function samples are taken in-process, so merged worker
    spans would carry durations with no matching samples and break the
    path-sums-match-span-self-times invariant).  Every parallel entry
    point checks this and falls back to serial execution, which is
    always correct — just slower.
    """
    from repro import obs
    from repro.explain import provenance

    recorder = obs.active()
    if recorder is not None and recorder.profiler is not None:
        return True
    return provenance.active() is not None


def reset_worker_capture() -> None:
    """Disable captures a worker inherited across a ``fork``.

    Recorders and provenance buffers inherited from the parent belong
    to the parent — worker writes to them would be silently lost.  Every
    pool initializer calls this before any task runs; tracing re-enters
    per task through :func:`repro.par.obsbuf.start_capture`.
    """
    from repro import obs
    from repro.explain import provenance

    obs.install(None)
    provenance.install(None)


def pool_context() -> multiprocessing.context.BaseContext:
    """The multiprocessing context used by every pool in this package.

    ``fork`` where the platform offers it — worker startup is cheap and
    read-only state (the topology, the atlas) is shared copy-on-write —
    otherwise the platform default.
    """
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _apply_chunk(payload: tuple[Callable[[Any], Any], list[Any]]) -> list[Any]:
    """Worker-side: apply ``fn`` to one chunk, preserving item order."""
    fn, chunk = payload
    return [fn(item) for item in chunk]


def map_deterministic(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    *,
    workers: int | None = None,
    chunk_size: int | None = None,
    initializer: Callable[..., None] | None = None,
    initargs: tuple[Any, ...] = (),
) -> list[Any]:
    """Order-preserving map over ``items``, fanned out to worker processes.

    Serial (a plain list comprehension, zero overhead) when the resolved
    worker count is 1 or there is at most one item.  Parallel execution
    splits the items into contiguous chunks, maps them on a fresh process
    pool, and concatenates the chunk results in submission order, so the
    returned list is element-for-element identical to the serial path
    whenever ``fn`` is a pure function of its item.

    ``fn`` must be picklable (a module-level function).  ``initializer``
    and ``initargs`` ship per-worker state once — use them for anything
    heavy (a topology, an engine) instead of closing over it.

    When a recorder is live, ``par.fork`` brackets executor creation and
    ``par.dispatch`` brackets the submit-and-drain window.  Workers are
    forked lazily on first submit, so the real fork+init cost lands
    inside the dispatch window and is attributed by
    :mod:`repro.obs.timeline` as dispatch residual.
    """
    items = list(items)
    n = min(worker_count(workers), len(items))
    if n <= 1:
        return [fn(item) for item in items]
    if chunk_size is None:
        chunk_size = max(1, math.ceil(len(items) / (n * CHUNKS_PER_WORKER)))
    chunks = [items[i:i + chunk_size] for i in range(0, len(items), chunk_size)]
    pool_workers = min(n, len(chunks))
    results: list[Any] = []
    with obs.span("par.fork", workers=pool_workers, chunks=len(chunks)):
        executor = ProcessPoolExecutor(
            max_workers=pool_workers,
            mp_context=pool_context(),
            initializer=initializer,
            initargs=initargs,
        )
    try:
        with obs.span("par.dispatch", tasks=len(chunks), workers=pool_workers):
            for chunk_result in executor.map(
                _apply_chunk, [(fn, c) for c in chunks]
            ):
                results.extend(chunk_result)
    finally:
        executor.shutdown()
    return results
