"""``repro.par`` — deterministic parallel compute + persistent caching.

Two modules, one contract (*parallelism and caching must be invisible
in the results*):

- :mod:`repro.par.routing` — ``REPRO_WORKERS`` resolution and the
  prefix-parallel :func:`~repro.par.routing.compute_fanout` behind
  :meth:`repro.routing.engine.RoutingEngine.compute_many`, the one
  place work fans out to worker processes, with each traced task's
  spans merged into the live recorder as one ``par.chunk`` span;
- :mod:`repro.par.cache` — the on-disk routing-table store behind
  ``repro cache stats|clear`` and ``--cache-dir``.

Serial is the default: with ``REPRO_WORKERS`` unset and no cache
configured, nothing here runs and the pipeline behaves exactly as the
seed did.  See ``docs/performance.md`` for the worker model, the
determinism contract, and cache keying.
"""
