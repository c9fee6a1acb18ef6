"""``repro.par`` — deterministic parallel compute + persistent caching.

Four pieces, one contract (*parallelism must be invisible in the
results*):

- :mod:`repro.par.pool` — ``REPRO_WORKERS`` resolution and the
  order-stable :func:`~repro.par.pool.map_deterministic` fan-out;
- :mod:`repro.par.routing` — prefix-parallel
  :func:`~repro.par.routing.compute_fanout` behind
  :meth:`repro.routing.engine.RoutingEngine.compute_many`, the one
  place work fans out to worker processes;
- :mod:`repro.par.cache` — the on-disk routing-table store behind
  ``repro cache stats|clear`` and ``--cache-dir``;
- :mod:`repro.par.obsbuf` — per-task span/counter buffers, merged
  deterministically into the live recorder as one ``par.chunk`` span
  per task.

Serial is the default: with ``REPRO_WORKERS`` unset and no cache
configured, nothing here runs and the pipeline behaves exactly as the
seed did.  See ``docs/performance.md`` for the worker model, the
determinism contract, and cache keying.
"""

from repro.par.cache import (
    CACHE_DIR_ENV,
    CacheCorruption,
    RoutingTableCache,
    clear_default_cache,
    default_cache_dir,
    resolve_cache,
    set_default_cache,
    tables_digest,
)
from repro.par.obsbuf import (
    WorkerPayload,
    finish_capture,
    merge_payload,
    start_capture,
)
from repro.par.pool import (
    WORKERS_ENV,
    capture_blocks_parallel,
    map_deterministic,
    pool_context,
    worker_count,
)
from repro.par.routing import compute_fanout

__all__ = [
    "CACHE_DIR_ENV",
    "CacheCorruption",
    "RoutingTableCache",
    "WORKERS_ENV",
    "WorkerPayload",
    "capture_blocks_parallel",
    "clear_default_cache",
    "compute_fanout",
    "default_cache_dir",
    "finish_capture",
    "map_deterministic",
    "merge_payload",
    "pool_context",
    "resolve_cache",
    "set_default_cache",
    "start_capture",
    "tables_digest",
    "worker_count",
]
