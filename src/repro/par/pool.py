"""Deterministic parallel-execution primitives.

Everything in :mod:`repro.par` follows one contract: **parallel execution
must be invisible in the results**.  Each item is one task, executed in
a worker process, and results are merged back in input order, so a run
with ``REPRO_WORKERS=8`` produces byte-identical tables, experiment
outputs, and claim scorecards to a serial run — only the wall clock
differs.

The knob is the ``REPRO_WORKERS`` environment variable (or an explicit
``workers=`` argument).  Unset, empty, ``0``, and ``1`` all mean
*serial*: the seed behaviour of the pipeline is unchanged unless a user
opts in.  Any other value that is not a non-negative integer is refused
with a :class:`ValueError` (``repro`` exits 2 on it before any build).

Worker processes are plain :class:`~concurrent.futures
.ProcessPoolExecutor` workers using the ``fork`` start method where the
platform offers it (cheap on Linux: the parent's pages are shared
copy-on-write, so a forked worker inherits state the parent staged
before the pool started, with no pickle and no rebuild).
Callables submitted through :func:`map_deterministic` must be picklable
(module-level functions); per-worker state is shipped once through the
``initializer`` / ``initargs`` pair, never per task.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Iterable

from repro import obs

#: Environment variable holding the worker count (serial when absent).
WORKERS_ENV = "REPRO_WORKERS"


def worker_count(explicit: int | None = None) -> int:
    """Resolve the effective worker count (1 means serial).

    ``explicit`` wins when given; otherwise ``REPRO_WORKERS`` is read.
    Unset, empty, ``0`` and ``1`` resolve to 1, so the default pipeline
    stays single-process.  A value that is not a non-negative integer
    (``abc``, ``-3``, ``2.5``) raises :class:`ValueError` naming the
    variable, rather than running serially without a word.
    """
    if explicit is not None:
        return max(1, explicit)
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


def capture_blocks_parallel() -> bool:
    """True when a process-local capture forces the serial path.

    Decision provenance cannot survive a process boundary: selection
    trails land in a process-local recorder.  Every parallel entry
    point checks this and falls back to serial execution, which is
    always correct — just slower.  Span tracing does not block: worker
    spans are merged into the parent's trace.
    """
    from repro.explain import provenance

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


def map_deterministic(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    *,
    workers: int | None = None,
    initializer: Callable[..., None] | None = None,
    initargs: tuple[Any, ...] = (),
) -> list[Any]:
    """Order-preserving map over ``items``, fanned out to worker processes.

    Serial (a plain list comprehension, zero overhead) when the resolved
    worker count is 1 or there is at most one item.  Parallel execution
    submits one task per item to a fresh process pool and collects the
    results in submission order, so the returned list is
    element-for-element identical to the serial path whenever ``fn`` is
    a pure function of its item.

    ``fn`` must be picklable (a module-level function).  ``initializer``
    and ``initargs`` ship per-worker state once — use them for anything
    heavy (a topology, an engine) instead of closing over it.

    When a recorder is live, ``par.fork`` brackets executor creation and
    ``par.dispatch`` brackets the submit-and-drain window.  Workers are
    forked lazily on first submit, so the real fork+init cost lands
    inside ``par.dispatch``, not ``par.fork``.
    """
    items = list(items)
    n = min(worker_count(workers), len(items))
    if n <= 1:
        return [fn(item) for item in items]
    with obs.span("par.fork", workers=n, tasks=len(items)):
        executor = ProcessPoolExecutor(
            max_workers=n,
            mp_context=pool_context(),
            initializer=initializer,
            initargs=initargs,
        )
    try:
        with obs.span("par.dispatch", tasks=len(items), workers=n):
            results = list(executor.map(fn, items))
    finally:
        executor.shutdown()
    return results
