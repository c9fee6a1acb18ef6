"""Per-worker observability buffers, merged deterministically.

A worker process cannot write into the parent's live
:class:`repro.obs.Recorder`, but the spans and counters it produces are
part of the run's truth: a parallel world build must still show every
``routing.compute`` span and every ``dns.queries`` increment in
``repro obs summary``.

The protocol is:

1. The parent decides whether recording is on (``obs.active() is not
   None``) and ships that flag with each task, along with the task's
   chunk index.
2. The worker brackets its work with :func:`start_capture` /
   :func:`finish_capture`, which install a private buffer recorder and
   lower its result to a plain-dict payload (spans via
   ``SpanRecord.to_dict``, plus root-level counters/gauges and a
   ``meta`` dict carrying the worker pid, chunk index, raw
   ``perf_counter`` start/end times, and the worker's memory accounting
   — absolute peak RSS and capture-window RSS growth) that crosses the
   process boundary as ordinary pickled data.
3. The parent calls :func:`merge_payload` on each returned payload **in
   task-submission order**.  Each payload is grafted under the
   currently open span as one :data:`CHUNK_SPAN` wrapper span tagged
   with ``worker_pid``, ``chunk_index``, and parent-recorder-relative
   ``t0_ms``/``t1_ms`` offsets (``perf_counter`` is CLOCK_MONOTONIC on
   Linux, so worker timestamps are directly comparable to the parent's
   origin).  The worker's spans become the wrapper's children, and its
   counters/gauges land on the wrapper — subtree totals are identical
   to replaying them on the parent, but the per-worker provenance
   survives.  Because the merge order is the submission order, the
   merged tree has a deterministic shape; only durations and offsets
   vary run to run.

When recording is off the whole machinery reduces to passing ``None``
around, so un-traced parallel runs pay nothing.
"""

from __future__ import annotations

import os
from typing import Any

from repro import obs
from repro.obs.recorder import _peak_rss_kib

#: The wire form of one worker capture: ``{"spans": [...], "counters":
#: {...}, "gauges": {...}, "meta": {...}}`` with spans as
#: ``SpanRecord.to_dict`` output.
WorkerPayload = dict[str, Any]

#: Name of the wrapper span one merged worker payload becomes.
CHUNK_SPAN = "par.chunk"


def start_capture(
    enabled: bool = True, chunk_index: int | None = None
) -> obs.Recorder | None:
    """Install a buffer recorder in the current (worker) process.

    Returns ``None`` without touching anything when ``enabled`` is
    false — the parent had no recorder, so capturing would be wasted
    work.  ``chunk_index`` (the task's position in submission order) is
    carried through to the payload's meta so the parent can tag the
    merged wrapper span.  The caller must pair this with
    :func:`finish_capture`.
    """
    if not enabled:
        return None
    recorder = obs.Recorder("par-worker")
    if chunk_index is not None:
        recorder.root.attrs["chunk_index"] = chunk_index
    obs.install(recorder)
    return recorder


def finish_capture(recorder: obs.Recorder | None) -> WorkerPayload | None:
    """Uninstall the buffer recorder and lower it to a payload."""
    if recorder is None:
        return None
    obs.uninstall()
    root = recorder.root
    t0 = recorder.wall_origin
    meta: dict[str, Any] = {
        "pid": os.getpid(),
        "t0_s": t0,
        # uninstall() finished the recorder, so root.wall_ms spans
        # exactly the capture window; derive t1 from it rather than
        # reading the clock again.
        "t1_s": t0 + root.wall_ms / 1000.0,
        "cpu_ms": root.cpu_ms,
        # Memory accounting: the worker's absolute peak RSS (KiB) and
        # the peak growth during this capture window (stamped on the
        # root by uninstall).  A worker that records zero spans still
        # reports these: peak RSS is process truth, not span truth.
        "peak_rss_kib": _peak_rss_kib(),
        "rss_peak_delta_kib": root.rss_peak_delta_kib,
    }
    if "chunk_index" in root.attrs:
        meta["chunk_index"] = root.attrs["chunk_index"]
    return {
        "spans": [child.to_dict() for child in root.children],
        "counters": dict(root.counters),
        "gauges": dict(root.gauges),
        "meta": meta,
    }


def merge_payload(payload: WorkerPayload | None) -> None:
    """Graft one worker payload into the live recorder.

    The payload becomes one :data:`CHUNK_SPAN` wrapper span appended as
    a child of the innermost open span, carrying the worker's spans as
    children and its counters/gauges directly.  The wrapper's attrs
    record ``worker_pid``, ``chunk_index``, and ``t0_ms``/``t1_ms``
    offsets relative to the parent recorder's wall origin, from which
    :mod:`repro.obs.timeline` reconstructs per-worker Gantt lanes.  A
    no-op when the payload is ``None`` or no recorder is installed.
    Callers must invoke this in task-submission order to keep the
    merged tree deterministic.
    """
    recorder = obs.active()
    if payload is None or recorder is None:
        return
    meta = payload.get("meta") or {}
    attrs: dict[str, object] = {}
    wall_ms = 0.0
    if "pid" in meta:
        attrs["worker_pid"] = int(meta["pid"])
    if "chunk_index" in meta:
        attrs["chunk_index"] = int(meta["chunk_index"])
    if "t0_s" in meta and "t1_s" in meta:
        origin = recorder.wall_origin
        t0_ms = (float(meta["t0_s"]) - origin) * 1000.0
        t1_ms = (float(meta["t1_s"]) - origin) * 1000.0
        attrs["t0_ms"] = round(t0_ms, 3)
        attrs["t1_ms"] = round(t1_ms, 3)
        wall_ms = max(0.0, t1_ms - t0_ms)
    if "peak_rss_kib" in meta:
        attrs["worker_rss_peak_kib"] = int(meta["peak_rss_kib"])
    chunk = obs.SpanRecord(
        name=CHUNK_SPAN,
        attrs=attrs,
        wall_ms=wall_ms,
        cpu_ms=float(meta.get("cpu_ms", 0.0)),
        rss_peak_delta_kib=max(0, int(meta.get("rss_peak_delta_kib", 0))),
    )
    for span_dict in payload.get("spans", []):
        child = obs.SpanRecord.from_dict(span_dict)
        if "pid" in meta:
            child.attrs.setdefault("worker_pid", int(meta["pid"]))
        if "chunk_index" in meta:
            child.attrs.setdefault("chunk_index", int(meta["chunk_index"]))
        chunk.children.append(child)
    for name, amount in payload.get("counters", {}).items():
        chunk.counters[str(name)] = chunk.counters.get(str(name), 0.0) + float(amount)
    for name, value in payload.get("gauges", {}).items():
        chunk.gauges[str(name)] = float(value)
    recorder.current.children.append(chunk)
