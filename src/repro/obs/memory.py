"""Span-attributed allocation profiling and deep structure size census.

``repro.obs.prof`` says which functions burned the *time*; this module
says where the *bytes* went — the memory counterpart of the profiler and
timeline lenses, and the byte-level evidence ROADMAP item 1's flat-array
routing refactor is gated on.

Two instruments share this module:

**The allocation profiler.**  A :class:`MemoryProfiler` rides the same
span push/pop notifications the cProfile integration uses (see
:class:`repro.obs.prof.SpanProfiler`): at every span boundary it reads
:func:`tracemalloc.get_traced_memory` — two counter loads, not a
snapshot — closes the open *slice* against the innermost span path, and
resets the traced peak so the next slice measures its own high-water
mark.  Because every traced byte belongs to exactly one slice and every
slice to exactly one path, the per-path net totals **telescope**: their
sum equals the run's total net allocation exactly, with no estimation.
Allocations made outside any child span land on the root-label path —
the explicit :data:`ENCLOSING_FRAME` residual that makes the table
reconcile against the span tree instead of silently leaking bytes.  One
full :func:`tracemalloc.take_snapshot` at :meth:`MemoryProfiler.stop`
yields a top-N live-allocation-site table (``file:line`` rows with an
``<other>`` fold preserving the totals).

**The size census.**  :func:`deep_sizeof` is a visited-set recursive
walker over container buffers, ``__dict__``/``__slots__`` attributes,
and ``array``/``bytes`` leaves.  Shared or interned substructures are
counted once per walk (pass one ``seen`` set across several roots to
measure their combined footprint).  :func:`census_routing_table` and
:func:`world_census` apply it to the load-bearing state types — routing
tables, the topology graph, catchments, DNS mapping services, explain
provenance buffers — and report bytes-per-route / bytes-per-AS as the
headline numbers.

Allocation capture is opt-in (``repro run --memory``) and forces serial
execution — tracemalloc is process-local, so traced workers would
produce totals the parent cannot reconcile (see
:func:`repro.par.pool.capture_blocks_parallel`).  When capture is off,
the cost is one ``is not None`` check per span boundary and nothing on
untraced runs.
"""

from __future__ import annotations

import sys
import tracemalloc
import weakref
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping

#: Schema version of the manifest's ``"memory"`` payload.
MEMORY_SCHEMA = 1

#: Residual attribution: bytes allocated while no child span was open
#: land on the root-label path; reports render it under this name so the
#: per-path totals visibly sum to the profiler total.
ENCLOSING_FRAME = "<enclosing frame>"

#: Allocation-site rows kept per snapshot before the ``<other>`` fold.
DEFAULT_TOP_SITES = 25

#: Stack frames tracemalloc keeps per allocation.  One frame identifies
#: the allocation site; deeper stacks multiply capture overhead.
TRACE_FRAMES = 1


def _kib(num_bytes: float) -> float:
    return num_bytes / 1024.0


@dataclass(frozen=True)
class PathMemory:
    """Traced allocation attributed to one span path."""

    #: Net traced bytes (allocations minus frees) while this path was
    #: innermost.  May be negative: a span that mostly releases memory.
    net_bytes: int
    #: Largest slice-local traced peak above the slice's starting size —
    #: the path's own allocation high-water mark.
    peak_bytes: int
    #: Number of boundary-to-boundary slices attributed to the path.
    slices: int

    def to_dict(self) -> dict[str, object]:
        return {
            "net_bytes": self.net_bytes,
            "peak_bytes": self.peak_bytes,
            "slices": self.slices,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "PathMemory":
        return cls(
            net_bytes=int(data.get("net_bytes", 0)),  # type: ignore[call-overload]
            peak_bytes=int(data.get("peak_bytes", 0)),  # type: ignore[call-overload]
            slices=int(data.get("slices", 0)),  # type: ignore[call-overload]
        )


@dataclass(frozen=True)
class SiteStat:
    """Live bytes still attributed to one allocation site at stop."""

    file: str
    line: int
    size_bytes: int
    count: int

    @property
    def location(self) -> str:
        if self.line <= 0:
            return self.file
        parts = self.file.replace("\\", "/").rsplit("/", 2)
        short = "/".join(parts[-2:]) if len(parts) > 1 else self.file
        return f"{short}:{self.line}"

    def to_dict(self) -> dict[str, object]:
        return {
            "file": self.file,
            "line": self.line,
            "size_bytes": self.size_bytes,
            "count": self.count,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SiteStat":
        return cls(
            file=str(data.get("file", "")),
            line=int(data.get("line", 0)),  # type: ignore[call-overload]
            size_bytes=int(data.get("size_bytes", 0)),  # type: ignore[call-overload]
            count=int(data.get("count", 0)),  # type: ignore[call-overload]
        )


@dataclass
class MemoryProfile:
    """A frozen allocation-profiler snapshot."""

    root_label: str
    #: Net traced bytes over the whole capture window.
    total_net_bytes: int
    #: Highest traced size above the capture's starting size.
    total_peak_bytes: int
    #: span path -> attribution; includes the root-label residual path.
    paths: dict[str, PathMemory]
    #: Top live allocation sites at stop, ``<other>`` fold included.
    top_sites: list[SiteStat] = field(default_factory=list)

    def reconcile(self) -> tuple[int, int]:
        """``(sum of per-path net bytes, total net bytes)`` — equal by
        construction; the acceptance check of the telescoping design."""
        return (
            sum(path.net_bytes for path in self.paths.values()),
            self.total_net_bytes,
        )

    def to_dict(self) -> dict[str, object]:
        return {
            "root_label": self.root_label,
            "total_net_bytes": self.total_net_bytes,
            "total_peak_bytes": self.total_peak_bytes,
            "paths": {
                path: stat.to_dict()
                for path, stat in sorted(self.paths.items())
            },
            "top_sites": [site.to_dict() for site in self.top_sites],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "MemoryProfile":
        raw_paths = data.get("paths", {})
        if not isinstance(raw_paths, dict):
            raise ValueError("memory profile 'paths' must be a mapping")
        raw_sites = data.get("top_sites", [])
        sites = (
            [SiteStat.from_dict(s) for s in raw_sites if isinstance(s, dict)]
            if isinstance(raw_sites, list) else []
        )
        return cls(
            root_label=str(data.get("root_label", "run")),
            total_net_bytes=int(data.get("total_net_bytes", 0)),  # type: ignore[call-overload]
            total_peak_bytes=int(data.get("total_peak_bytes", 0)),  # type: ignore[call-overload]
            paths={
                str(path): PathMemory.from_dict(stat)
                for path, stat in raw_paths.items()
                if isinstance(stat, dict)
            },
            top_sites=sites,
        )


class MemoryProfiler:
    """Attributes traced allocation to span paths at span boundaries.

    Lifecycle mirrors :class:`repro.obs.prof.SpanProfiler`::

        profiler = MemoryProfiler("repro-run")
        profiler.start()          # tracemalloc on (unless already tracing)
        ...                       # recorder drives span_push/span_pop
        profiler.stop()
        data = profiler.snapshot()

    If tracemalloc was already tracing when :meth:`start` ran, the
    profiler piggybacks on the existing session and leaves it running at
    :meth:`stop`; otherwise it owns the session outright.
    """

    def __init__(
        self,
        root_label: str = "run",
        *,
        top_sites: int = DEFAULT_TOP_SITES,
    ):
        self.root_label = root_label
        self._top_sites = top_sites
        #: span path -> [net_bytes, peak_bytes, slices].
        self._paths: dict[str, list[int]] = {}
        self._path_stack: list[str] = [root_label]
        self._running = False
        self._owns_trace = False
        #: Traced size when the capture (and each slice) started.
        self._start_size = 0
        self._slice_size = 0
        self._total_peak = 0
        self._sites: list[SiteStat] = []

    # -- span bookkeeping (called by the Recorder) ---------------------
    def span_push(self, name: str) -> None:
        if self._running:
            self._flush()
        self._path_stack.append(f"{self._path_stack[-1]}/{name}")

    def span_pop(self) -> None:
        if self._running:
            self._flush()
        if len(self._path_stack) > 1:
            self._path_stack.pop()

    def _flush(self) -> None:
        """Close the open slice against the innermost span path."""
        size, peak = tracemalloc.get_traced_memory()
        entry = self._paths.get(self._path_stack[-1])
        if entry is None:
            entry = [0, 0, 0]
            self._paths[self._path_stack[-1]] = entry
        entry[0] += size - self._slice_size
        slice_peak = max(0, peak - self._slice_size)
        if slice_peak > entry[1]:
            entry[1] = slice_peak
        entry[2] += 1
        capture_peak = (self._slice_size - self._start_size) + slice_peak
        if capture_peak > self._total_peak:
            self._total_peak = capture_peak
        tracemalloc.reset_peak()
        self._slice_size = size

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        """Begin capture (idempotent); starts tracemalloc if needed."""
        if self._running:
            return
        self._owns_trace = not tracemalloc.is_tracing()
        if self._owns_trace:
            tracemalloc.start(TRACE_FRAMES)
        size, _peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        self._start_size = size
        self._slice_size = size
        self._running = True

    def stop(self) -> None:
        """Close the open slice, snapshot live sites, end the capture
        (idempotent)."""
        if not self._running:
            return
        self._flush()
        self._sites = _top_allocation_sites(self._top_sites)
        if self._owns_trace:
            tracemalloc.stop()
        self._running = False
        # Paths abandoned by a crash unwind must not leak into a later
        # start() (cf. SpanProfiler.stop).
        del self._path_stack[1:]

    # -- results --------------------------------------------------------
    def snapshot(self) -> MemoryProfile:
        """The collected attribution, residual root path included."""
        return MemoryProfile(
            root_label=self.root_label,
            total_net_bytes=sum(e[0] for e in self._paths.values()),
            total_peak_bytes=self._total_peak,
            paths={
                path: PathMemory(
                    net_bytes=entry[0], peak_bytes=entry[1], slices=entry[2]
                )
                for path, entry in self._paths.items()
            },
            top_sites=list(self._sites),
        )


def _top_allocation_sites(top: int) -> list[SiteStat]:
    """Top live allocation sites of the running trace, rest folded.

    The ``<other>`` row preserves the total live size and block count
    exactly, so the table accounts for every traced byte still alive.
    """
    if not tracemalloc.is_tracing():
        return []
    stats = tracemalloc.take_snapshot().statistics("lineno")
    rows = [
        SiteStat(
            file=stat.traceback[0].filename,
            line=stat.traceback[0].lineno,
            size_bytes=stat.size,
            count=stat.count,
        )
        for stat in stats
    ]
    return _fold_sites(rows, top)


def _fold_sites(rows: list[SiteStat], top: int) -> list[SiteStat]:
    """Rank rows by live size and fold the tail into ``<other>``.

    The fold preserves the summed live size and block count exactly —
    every traced byte still alive stays accounted for.
    """
    rows = sorted(rows, key=lambda s: (-s.size_bytes, s.file, s.line))
    if top <= 0 or len(rows) <= top:
        return rows
    kept, rest = rows[:top], rows[top:]
    kept.append(
        SiteStat(
            file="<other>",
            line=0,
            size_bytes=sum(s.size_bytes for s in rest),
            count=sum(s.count for s in rest),
        )
    )
    return kept


# ----------------------------------------------------------------------
# Deep structure size census
# ----------------------------------------------------------------------

#: CPython pre-allocates one singleton per small int; counting them into
#: a structure's footprint would charge the interpreter to the census.
_SMALL_INT_MIN, _SMALL_INT_MAX = -5, 256

#: Types the walker never descends into or charges: interpreter-owned
#: machinery reachable from almost any object.
_BOUNDARY_TYPES: tuple[type, ...] = (
    type,
    type(sys),              # ModuleType
    type(_kib),             # FunctionType
    type(len),              # BuiltinFunctionType
    type("".join),          # BuiltinMethodType
)

#: Leaf types: ``sys.getsizeof`` already includes their whole buffer.
_LEAF_TYPES: tuple[type, ...] = (
    str, bytes, bytearray, int, float, complex, bool, range, memoryview,
)


def _slot_names(cls: type) -> list[str]:
    """Every ``__slots__`` name along the MRO (deduplicated, in order)."""
    names: list[str] = []
    for klass in cls.__mro__:
        slots = klass.__dict__.get("__slots__", ())
        if isinstance(slots, str):
            slots = (slots,)
        for name in slots:
            if name not in ("__dict__", "__weakref__") and name not in names:
                names.append(name)
    return names


def deep_sizeof(
    obj: object, *, seen: set[int] | None = None
) -> tuple[int, int]:
    """``(bytes, objects)`` of one structure, shared parts counted once.

    An iterative visited-set walk: container buffers via
    ``sys.getsizeof``, then down into dict keys/values, sequence and set
    members, ``__dict__`` and ``__slots__`` attributes.  Interned or
    otherwise shared substructures (the same string object referenced
    from two routes, a tuple aliased across tables) are counted exactly
    once per ``seen`` set — pass the same set across several calls to
    measure a combined footprint without double counting.

    Interpreter-owned objects are excluded: ``None``/``True``/``False``,
    CPython's small-int singletons, and anything behind a type, module,
    or function boundary.
    """
    if seen is None:
        seen = set()
    total_bytes = 0
    total_objects = 0
    stack: list[Any] = [obj]
    while stack:
        current = stack.pop()
        if current is None or isinstance(current, bool):
            continue
        if (isinstance(current, int)
                and _SMALL_INT_MIN <= current <= _SMALL_INT_MAX):
            continue
        if isinstance(current, _BOUNDARY_TYPES):
            continue
        ident = id(current)
        if ident in seen:
            continue
        seen.add(ident)
        try:
            total_bytes += sys.getsizeof(current)
        except TypeError:  # pragma: no cover - exotic C objects
            continue
        total_objects += 1
        if isinstance(current, _LEAF_TYPES):
            continue
        if isinstance(current, dict):
            stack.extend(current.keys())
            stack.extend(current.values())
            continue
        if isinstance(current, (list, tuple, set, frozenset)):
            stack.extend(current)
            continue
        # array.array and similar buffer leaves: getsizeof includes the
        # payload and there is nothing to descend into.
        if type(current).__module__ == "array":
            continue
        instance_dict = getattr(current, "__dict__", None)
        if isinstance(instance_dict, dict):
            stack.append(instance_dict)
        for name in _slot_names(type(current)):
            try:
                stack.append(getattr(current, name))
            except AttributeError:
                continue
    return total_bytes, total_objects


@dataclass(frozen=True)
class CensusRow:
    """Deep footprint of one registered structure."""

    name: str
    kind: str
    bytes: int
    objects: int
    #: Derived per-unit numbers (``routes``, ``ases``,
    #: ``bytes_per_route``, ``bytes_per_as``, ...).
    units: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict[str, object]:
        data: dict[str, object] = {
            "name": self.name,
            "kind": self.kind,
            "bytes": self.bytes,
            "objects": self.objects,
        }
        if self.units:
            data["units"] = {k: round(v, 3) for k, v in sorted(self.units.items())}
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "CensusRow":
        units = data.get("units", {})
        return cls(
            name=str(data.get("name", "")),
            kind=str(data.get("kind", "")),
            bytes=int(data.get("bytes", 0)),  # type: ignore[call-overload]
            objects=int(data.get("objects", 0)),  # type: ignore[call-overload]
            units=(
                {str(k): float(v) for k, v in units.items()}  # type: ignore[union-attr, arg-type]
                if isinstance(units, dict) else {}
            ),
        )


def census_object(
    name: str, kind: str, obj: object, **units: float
) -> CensusRow:
    """One census row for an arbitrary structure."""
    size, objects = deep_sizeof(obj)
    return CensusRow(name=name, kind=kind, bytes=size, objects=objects,
                     units=dict(units))


def census_routing_table(name: str, table: Any) -> CensusRow:
    """Census row for one :class:`repro.routing.engine.RoutingTable`.

    ``bytes_per_route`` and ``bytes_per_as`` are the headline numbers the
    flat-array routing refactor (ROADMAP item 1) drives down; the row
    gives its byte-identical before/after.

    Tables that expose ``census_state()`` (the flat store) are measured
    through it: the packed columns are the whole footprint, and the
    ``best`` view (which builds ``Route`` objects on demand and keeps
    none) would only double-count the shared announcement.
    """
    state = getattr(table, "census_state", None)
    target = state() if callable(state) else table
    size, objects = deep_sizeof(target)
    routes = table.num_routes()
    ases = len(table.best)
    units: dict[str, float] = {
        "routes": float(routes),
        "ases": float(ases),
    }
    if routes:
        units["bytes_per_route"] = size / routes
    if ases:
        units["bytes_per_as"] = size / ases
    return CensusRow(name=name, kind="RoutingTable", bytes=size,
                     objects=objects, units=units)


def world_census(world: Any) -> list[CensusRow]:
    """Census of a built world's load-bearing state.

    Covers the topology graph, its flat adjacency (CSR columns plus the
    exit-km and hot-potato exit memos the routing engine and forwarding
    walks fill), the measurement engine's forwarding memo (the landings
    and paths it walked once per routing table), every announcement's
    routing table (a cache hit after the build), per-announcement
    catchment summaries, the DNS mapping services, and — when a
    provenance capture is live — the explain buffers.  Rows arrive in a
    deterministic order: shared structures first, then per-announcement
    rows in announcement order.
    """
    from repro.explain import provenance
    from repro.routing.inspect import summarize_catchment
    from repro.topology.flat import flat_adjacency

    # One visited set across the shared rows: the adjacency's exit memo
    # points at interconnects the topology row already counted, and the
    # forwarding memo's paths at its cities.  (The adjacency holds its
    # topology only through a weakref, which the walk does not follow.)
    seen: set[int] = set()
    size, objects = deep_sizeof(world.topology, seen=seen)
    rows: list[CensusRow] = [
        CensusRow(
            name="topology", kind="Topology", bytes=size, objects=objects,
            units={"nodes": float(world.topology.num_nodes)},
        ),
    ]
    adjacency = flat_adjacency(world.topology)
    size, objects = deep_sizeof(adjacency, seen=seen)
    rows.append(
        CensusRow(
            name="flat_adjacency", kind="FlatAdjacency", bytes=size,
            objects=objects,
            units={
                "nodes": float(adjacency.num_nodes),
                "entries": float(adjacency.exit_count()),
            },
        )
    )
    memo = world.engine.memo
    size, objects = deep_sizeof(memo.census_state(), seen=seen)
    rows.append(
        CensusRow(
            name="forwarding_memo", kind="ForwardingMemo", bytes=size,
            objects=objects, units={"entries": float(memo.entries())},
        )
    )
    engine = world.engine.routing
    announcements = world.registry.announcements()
    total_bytes = 0
    total_routes = 0
    total_ases = 0
    for announcement in announcements:
        table = engine.compute(announcement)
        row = census_routing_table(
            f"routing_table[{announcement.prefix}]", table
        )
        rows.append(row)
        total_bytes += row.bytes
        total_routes += int(row.units.get("routes", 0.0))
        total_ases += int(row.units.get("ases", 0.0))
        summary = summarize_catchment(world.topology, table)
        rows.append(
            census_object(
                f"catchment[{announcement.prefix}]", "CatchmentSummary",
                summary, ases=float(len(summary.as_counts)),
            )
        )
    if announcements:
        units = {
            "tables": float(len(announcements)),
            "routes": float(total_routes),
            "ases": float(total_ases),
        }
        if total_routes:
            units["bytes_per_route"] = total_bytes / total_routes
        if total_ases:
            units["bytes_per_as"] = total_bytes / total_ases
        rows.append(
            CensusRow(
                name="routing_tables[all]", kind="RoutingTable",
                bytes=total_bytes, objects=0, units=units,
            )
        )
    for attr in ("eg3_service", "eg4_service", "im6_service"):
        service = getattr(world, attr, None)
        if service is not None:
            rows.append(
                census_object(f"dns[{attr}]", "GeoMappingService", service)
            )
    recorder = provenance.active()
    if recorder is not None:
        rows.append(
            census_object(
                "explain_buffers", "ProvenanceRecorder", recorder,
                trails=float(
                    len(recorder.selection) + len(recorder.forwarding)
                    + len(recorder.dns)
                ),
            )
        )
    return rows


# ----------------------------------------------------------------------
# Staged-footprint memo (parallel plane)
# ----------------------------------------------------------------------

_FOOTPRINTS: "weakref.WeakKeyDictionary[Any, tuple[int, int]]" = (
    weakref.WeakKeyDictionary()
)


def staged_footprint_bytes(obj: Any, version: int) -> int:
    """Deep size of a staged structure, memoized per ``(obj, version)``.

    ``compute_fanout`` records the staged topology's footprint on every
    fan-out; the walk runs once per topology version (cf. the
    content-hash memo in :mod:`repro.par.cache`) so a traced parallel
    run pays a dict probe per fan-out, not a traversal.
    """
    cached = _FOOTPRINTS.get(obj)
    if cached is not None and cached[0] == version:
        return cached[1]
    size, _objects = deep_sizeof(obj)
    _FOOTPRINTS[obj] = (version, size)  # repro-lint: disable=fork-global-write -- idempotent content-derived memo
    return size


# ----------------------------------------------------------------------
# Manifest payload + rendering
# ----------------------------------------------------------------------

def memory_payload(
    profile: MemoryProfile | None,
    census: Iterable[CensusRow] | None = None,
) -> dict[str, object]:
    """The plain-dict form embedded under a manifest's ``"memory"`` key."""
    payload: dict[str, object] = {"schema": MEMORY_SCHEMA}
    if profile is not None:
        payload["profile"] = profile.to_dict()
    if census is not None:
        payload["census"] = [row.to_dict() for row in census]
    return payload


def _iter_census_rows(payload: Mapping[str, object]) -> Iterator[CensusRow]:
    census = payload.get("census")
    if isinstance(census, list):
        for raw in census:
            if isinstance(raw, dict):
                yield CensusRow.from_dict(raw)


def render_memory_section(
    payload: Mapping[str, object], *, top: int = 12
) -> str:
    """Human-readable report of one manifest's ``"memory"`` payload."""
    parts: list[str] = []
    raw_profile = payload.get("profile")
    if isinstance(raw_profile, dict):
        profile = MemoryProfile.from_dict(raw_profile)
        parts.append(render_memory_profile(profile, top=top))
    rows = list(_iter_census_rows(payload))
    if rows:
        parts.append(render_census(rows, top=top))
    if not parts:
        return "no memory data recorded (re-run with --memory)"
    return "\n\n".join(parts)


def render_memory_profile(profile: MemoryProfile, *, top: int = 12) -> str:
    """Per-span-path allocation table plus the top live sites."""
    attributed, total = profile.reconcile()
    lines = [
        f"allocation by span path (traced net {_kib(total):+,.1f} KiB, "
        f"peak {_kib(profile.total_peak_bytes):,.1f} KiB; "
        f"{len(profile.paths)} paths sum to {_kib(attributed):+,.1f} KiB)",
    ]
    ranked = sorted(
        profile.paths.items(),
        key=lambda item: (-abs(item[1].net_bytes), item[0]),
    )[:top]
    if ranked:
        def label(path: str) -> str:
            if path == profile.root_label:
                return f"{path} {ENCLOSING_FRAME}"
            return path

        width = max(len(label(path)) for path, _stat in ranked)
        lines.append(
            f"  {'path':{width}}  {'net KiB':>12}  {'peak KiB':>12}  "
            f"{'slices':>7}"
        )
        for path, stat in ranked:
            lines.append(
                f"  {label(path):{width}}  {_kib(stat.net_bytes):+12,.1f}  "
                f"{_kib(stat.peak_bytes):12,.1f}  {stat.slices:7d}"
            )
    else:
        lines.append("  (no allocation recorded)")
    if profile.top_sites:
        lines.append("")
        lines.append("top live allocation sites at stop:")
        shown = profile.top_sites[:top + 1]
        width = max(len(site.location) for site in shown)
        lines.append(
            f"  {'site':{width}}  {'live KiB':>12}  {'blocks':>8}"
        )
        for site in shown:
            lines.append(
                f"  {site.location:{width}}  "
                f"{_kib(site.size_bytes):12,.1f}  {site.count:8d}"
            )
    return "\n".join(lines)


def render_census(rows: Iterable[CensusRow], *, top: int = 12) -> str:
    """The structure census table, aggregate rows pinned to the top."""
    rows = list(rows)
    if not rows:
        return "census: (no structures registered)"
    lines = [f"structure census ({len(rows)} structures):"]
    width = max(len(row.name) for row in rows)
    lines.append(
        f"  {'structure':{width}}  {'KiB':>12}  {'objects':>9}  per-unit"
    )
    for row in rows:
        per_unit = ", ".join(
            f"{key}={value:,.1f}"
            for key, value in sorted(row.units.items())
            if key.startswith("bytes_per_")
        )
        counts = ", ".join(
            f"{key}={int(value):,}"
            for key, value in sorted(row.units.items())
            if not key.startswith("bytes_per_")
        )
        tail = "; ".join(part for part in (per_unit, counts) if part)
        lines.append(
            f"  {row.name:{width}}  {_kib(row.bytes):12,.1f}  "
            f"{row.objects:9d}  {tail}"
        )
    return "\n".join(lines)


def memory_trend_series(payload: Mapping[str, object]) -> dict[str, float]:
    """``mem.*`` trend metrics (KiB) distilled from a memory payload.

    Used by :func:`repro.obs.trend.record_from_manifest` so allocation
    totals and census footprints gate under the same median+MAD rule as
    wall times.
    """
    series: dict[str, float] = {}
    raw_profile = payload.get("profile")
    if isinstance(raw_profile, dict):
        profile = MemoryProfile.from_dict(raw_profile)
        series["mem.traced_net_kib"] = _kib(profile.total_net_bytes)
        series["mem.traced_peak_kib"] = _kib(profile.total_peak_bytes)
    for row in _iter_census_rows(payload):
        if row.name.endswith("[all]") or "[" not in row.name:
            series[f"mem.census.{row.name}_kib"] = _kib(row.bytes)
        if "bytes_per_route" in row.units and row.name.endswith("[all]"):
            series["mem.bytes_per_route"] = row.units["bytes_per_route"]
        if "bytes_per_as" in row.units and row.name.endswith("[all]"):
            series["mem.bytes_per_as"] = row.units["bytes_per_as"]
    return series
