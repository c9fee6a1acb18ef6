"""Zero-dependency tracing core: spans, counters, and gauges.

A :class:`Recorder` collects a tree of :class:`SpanRecord` nodes for one
run.  Instrumented code never talks to a recorder directly — it calls the
module-level helpers::

    with span("routing.compute", prefix=str(prefix)):
        ...
        counter.inc("routing.routes_pushed", pushed)

When no recorder is installed (the default), :func:`span` returns a shared
inert singleton and :data:`counter` / :data:`gauge` return immediately —
one global load and a ``None`` check — so hot paths pay ~nothing.  Install
a recorder with :func:`install` or the :func:`recording` context manager
to turn the same call sites into a structured trace.

Each closed span records wall time (``perf_counter``), CPU time
(``process_time``), and the growth of the process's peak RSS while the
span was open (``ru_maxrss`` is a high-water mark, so the delta is
non-zero only for the spans that pushed it; units are KiB on Linux).
Counter increments and gauge values attach to the innermost open span.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from types import TracebackType
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - import for type checking only
    from repro.obs.events import EventSink
    from repro.obs.prof import SpanProfiler

try:  # pragma: no cover - exercised on POSIX only
    import resource as _resource

    def _peak_rss_kib() -> int:
        """The process's peak resident-set size so far (KiB on Linux)."""
        return int(_resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss)

except ImportError:  # pragma: no cover - non-POSIX fallback

    def _peak_rss_kib() -> int:
        return 0


@dataclass
class SpanRecord:
    """One completed (or in-flight) span and its subtree."""

    name: str
    attrs: dict[str, object] = field(default_factory=dict)
    wall_ms: float = 0.0
    cpu_ms: float = 0.0
    #: Growth of the process's peak RSS while the span was open, in KiB.
    rss_peak_delta_kib: int = 0
    status: str = "ok"
    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    children: list["SpanRecord"] = field(default_factory=list)

    @property
    def self_wall_ms(self) -> float:
        """Wall time not attributed to any child span."""
        return max(0.0, self.wall_ms - sum(c.wall_ms for c in self.children))

    def walk(self, prefix: str = "") -> Iterator[tuple[str, "SpanRecord"]]:
        """Yield ``(slash-joined path, span)`` over the subtree, pre-order."""
        path = f"{prefix}/{self.name}" if prefix else self.name
        yield path, self
        for child in self.children:
            yield from child.walk(path)

    def find(self, name: str) -> "SpanRecord | None":
        """The first span named ``name`` in pre-order, or None."""
        for _, record in self.walk():
            if record.name == name:
                return record
        return None

    def find_all(self, name: str) -> list["SpanRecord"]:
        """Every span named ``name`` in the subtree, pre-order."""
        return [record for _, record in self.walk() if record.name == name]

    def subtree_counters(self) -> dict[str, float]:
        """Counter totals summed over the whole subtree."""
        totals: dict[str, float] = {}
        for _, record in self.walk():
            for key, value in record.counters.items():
                totals[key] = totals.get(key, 0.0) + value
        return totals

    def to_dict(self) -> dict[str, object]:
        """JSON-serialisable form (attrs coerced to plain values)."""
        data: dict[str, object] = {
            "name": self.name,
            "wall_ms": round(self.wall_ms, 3),
            "cpu_ms": round(self.cpu_ms, 3),
            "rss_peak_delta_kib": self.rss_peak_delta_kib,
            "status": self.status,
        }
        if self.attrs:
            data["attrs"] = {k: _plain(v) for k, v in self.attrs.items()}
        if self.counters:
            data["counters"] = dict(self.counters)
        if self.gauges:
            data["gauges"] = dict(self.gauges)
        if self.children:
            data["children"] = [c.to_dict() for c in self.children]
        return data

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "SpanRecord":
        """Rebuild a span tree; raises ``ValueError`` when it is malformed."""
        if not isinstance(data, dict) or "name" not in data:
            raise ValueError("every span must be an object with a 'name'")
        children = data.get("children", [])
        if not isinstance(children, list):
            raise ValueError("span 'children' must be a list")
        try:
            return cls(
                name=str(data["name"]),
                attrs=dict(data.get("attrs", {})),  # type: ignore[call-overload]
                wall_ms=float(data.get("wall_ms", 0.0)),  # type: ignore[arg-type]
                cpu_ms=float(data.get("cpu_ms", 0.0)),  # type: ignore[arg-type]
                rss_peak_delta_kib=int(data.get("rss_peak_delta_kib", 0)),  # type: ignore[call-overload]
                status=str(data.get("status", "ok")),
                counters={str(k): float(v)
                          for k, v in dict(data.get("counters", {})).items()},  # type: ignore[call-overload]
                gauges={str(k): float(v)
                        for k, v in dict(data.get("gauges", {})).items()},  # type: ignore[call-overload]
                children=[cls.from_dict(c) for c in children],
            )
        except TypeError as exc:
            raise ValueError(f"malformed span {data['name']!r}: {exc}") from exc


def _plain(value: object) -> object:
    """Attribute values JSON can carry unchanged; everything else as str."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


class ActiveSpan:
    """Context manager for one open span on a recorder's stack."""

    __slots__ = ("_recorder", "record", "_wall0", "_cpu0", "_rss0")

    def __init__(self, recorder: "Recorder", record: SpanRecord):
        self._recorder = recorder
        self.record = record
        self._wall0 = 0.0
        self._cpu0 = 0.0
        self._rss0 = 0

    def __enter__(self) -> "ActiveSpan":
        self._recorder._push(self.record)
        self._rss0 = _peak_rss_kib()
        self._cpu0 = time.process_time()
        self._wall0 = time.perf_counter()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        wall = time.perf_counter() - self._wall0
        cpu = time.process_time() - self._cpu0
        record = self.record
        record.wall_ms = wall * 1000.0
        record.cpu_ms = cpu * 1000.0
        record.rss_peak_delta_kib = max(0, _peak_rss_kib() - self._rss0)
        if exc_type is not None:
            record.status = "error"
        self._recorder._pop(record)
        return False


class NullSpan:
    """The inert span handed out while no recorder is installed."""

    __slots__ = ()

    #: Mirrors :attr:`ActiveSpan.record` so callers can always read it.
    record: None = None

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        return False


#: Shared no-op span; identity-comparable in tests.
NULL_SPAN = NullSpan()


class Recorder:
    """Collects the span tree and counters of one process-local recording."""

    def __init__(
        self,
        label: str = "run",
        event_sink: "EventSink | None" = None,
        profiler: "SpanProfiler | None" = None,
    ):
        self.root = SpanRecord(name=label)
        self._stack: list[SpanRecord] = [self.root]
        self._events = event_sink
        #: Optional span-aware function profiler (see repro.obs.prof);
        #: notified on every span push/pop so function time groups by
        #: span path.  None costs one attribute check per span.
        self.profiler = profiler
        self._wall_origin = time.perf_counter()
        self._cpu_origin = time.process_time()
        self._rss_origin = _peak_rss_kib()
        self._finished = False
        #: Set by :func:`repro.obs.manifest.tracing` after export.
        self.manifest_path: Path | None = None
        #: Serialised decision-provenance payload (repro.explain) to embed
        #: in the run manifest, set by producers before tracing() exits.
        #: Plain dicts only — the obs core never imports repro.explain.
        self.explain_data: dict[str, object] | None = None

    @property
    def current(self) -> SpanRecord:
        """The innermost open span (the root when none is open)."""
        return self._stack[-1]

    def span(self, name: str, **attrs: object) -> ActiveSpan:
        return ActiveSpan(self, SpanRecord(name=name, attrs=dict(attrs)))

    def counter_inc(self, name: str, amount: float = 1.0) -> None:
        counters = self._stack[-1].counters
        counters[name] = counters.get(name, 0.0) + amount

    def gauge_set(self, name: str, value: float) -> None:
        self._stack[-1].gauges[name] = float(value)

    def finish(self) -> SpanRecord:
        """Stamp the root span's totals (idempotent) and close the sink."""
        if not self._finished:
            self._finished = True
            self.root.wall_ms = (time.perf_counter() - self._wall_origin) * 1000.0
            self.root.cpu_ms = (time.process_time() - self._cpu_origin) * 1000.0
            self.root.rss_peak_delta_kib = max(0, _peak_rss_kib() - self._rss_origin)
            if self._events is not None:
                self._events.close()
        return self.root

    # -- stack plumbing used by ActiveSpan -----------------------------
    def _push(self, record: SpanRecord) -> None:
        self._stack[-1].children.append(record)
        self._stack.append(record)
        if self.profiler is not None:
            self.profiler.span_push(record.name)
        if self._events is not None:
            self._events.emit({
                "ev": "start",
                "span": record.name,
                "t_ms": round((time.perf_counter() - self._wall_origin) * 1000.0, 3),
                "depth": len(self._stack) - 1,
                "attrs": {k: _plain(v) for k, v in record.attrs.items()},
            })

    def _pop(self, record: SpanRecord) -> None:
        # Unwind to the matching record so a mis-nested exit cannot wedge
        # the stack (spans are context-managed, so this is one pop).
        while len(self._stack) > 1:
            if self._stack.pop() is record:
                break
        if self.profiler is not None:
            self.profiler.span_pop()
        if self._events is not None:
            self._events.emit({
                "ev": "end",
                "span": record.name,
                "t_ms": round((time.perf_counter() - self._wall_origin) * 1000.0, 3),
                "wall_ms": round(record.wall_ms, 3),
                "status": record.status,
                "counters": dict(record.counters),
            })


#: The process-local recorder; None means tracing is disabled.
_CURRENT: Recorder | None = None


def install(recorder: Recorder | None) -> Recorder | None:
    """Make ``recorder`` the process-local recorder (None disables)."""
    global _CURRENT
    _CURRENT = recorder
    return recorder


def uninstall() -> Recorder | None:
    """Remove the installed recorder, stamping its root; returns it."""
    global _CURRENT
    recorder = _CURRENT
    _CURRENT = None
    if recorder is not None:
        recorder.finish()
    return recorder


def active() -> Recorder | None:
    """The installed recorder, or None when tracing is disabled."""
    return _CURRENT


def span(name: str, **attrs: object) -> ActiveSpan | NullSpan:
    """Open a span on the installed recorder; inert when disabled."""
    recorder = _CURRENT
    if recorder is None:
        return NULL_SPAN
    return recorder.span(name, **attrs)


@contextmanager
def recording(
    label: str = "run",
    event_sink: "EventSink | None" = None,
    profiler: "SpanProfiler | None" = None,
) -> Iterator[Recorder]:
    """Install a fresh recorder for the duration of the block.

    Restores whatever recorder (or None) was installed before, so
    recordings nest safely; the yielded recorder is finished on exit.
    A ``profiler`` is started on entry and stopped on exit, bracketing
    exactly the recorded region.
    """
    global _CURRENT
    previous = _CURRENT
    recorder = Recorder(label, event_sink=event_sink, profiler=profiler)
    _CURRENT = recorder
    if profiler is not None:
        profiler.start()
    try:
        yield recorder
    finally:
        if profiler is not None:
            profiler.stop()
        recorder.finish()
        _CURRENT = previous


class _CounterAPI:
    """Module-level counter facade: ``counter.inc("name", amount)``."""

    __slots__ = ()

    @staticmethod
    def inc(name: str, amount: float = 1.0) -> None:
        recorder = _CURRENT
        if recorder is not None:
            recorder.counter_inc(name, amount)


class _GaugeAPI:
    """Module-level gauge facade: ``gauge.set("name", value)``."""

    __slots__ = ()

    @staticmethod
    def set(name: str, value: float) -> None:
        recorder = _CURRENT
        if recorder is not None:
            recorder.gauge_set(name, value)


counter = _CounterAPI()
gauge = _GaugeAPI()
