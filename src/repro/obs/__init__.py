"""``repro.obs`` — structured tracing, metrics, and run manifests.

The observability substrate of the reproduction pipeline:

- :mod:`repro.obs.recorder` — spans, counters, gauges, and the
  process-local :class:`Recorder` (no-op when disabled);
- :mod:`repro.obs.events` — the span ``start``/``end`` stream
  (``events-<id>.jsonl``) a traced run writes as it goes;
- :mod:`repro.obs.manifest` — run manifests (config, seeds, git SHA,
  span tree) and the :func:`~repro.obs.manifest.tracing` helper;
- :mod:`repro.obs.prof` — deterministic span-aware function profiler
  (``repro obs profile``, ``repro run --profile``);
- :mod:`repro.obs.trend` — append-only benchmark history and the
  median+MAD regression gate (``repro obs ingest`` / ``trend``);
- :mod:`repro.obs.health` — domain health gauges recorded at the end of
  instrumented runs (``health.*``);
- :mod:`repro.obs.report` — ``obs summary`` / ``obs compare`` /
  ``obs dashboard`` rendering.

Typical instrumentation::

    from repro import obs

    with obs.span("routing.compute", prefix=str(prefix)):
        ...
        obs.counter.inc("routing.routes_pushed", pushed)

and a traced entry point::

    from repro.obs.manifest import tracing

    with tracing("obs/", label="my-run", config=cfg) as recorder:
        run_everything()
    print(recorder.manifest_path)

See ``docs/observability.md`` for the full API and trace schema.
"""

from repro.obs.recorder import (
    NULL_SPAN,
    ActiveSpan,
    NullSpan,
    Recorder,
    SpanRecord,
    active,
    counter,
    gauge,
    install,
    recording,
    span,
    uninstall,
)

__all__ = [
    "NULL_SPAN",
    "ActiveSpan",
    "NullSpan",
    "Recorder",
    "SpanRecord",
    "active",
    "counter",
    "gauge",
    "install",
    "recording",
    "span",
    "uninstall",
]
