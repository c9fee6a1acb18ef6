"""Per-worker Gantt timelines and overhead attribution for parallel runs.

A serial trace answers "where did the time go" by span nesting alone; a
parallel trace cannot, because worker time overlaps parent time.  This
module reconstructs the missing picture from the artifacts
:mod:`repro.par.obsbuf` merges into a recording:

* parent-side **phase spans** — ``par.stage`` (building tasks, staging
  fork state), ``par.fork`` (executor construction), ``par.dispatch``
  (submit-and-drain window), ``par.merge`` (payload merge) — mark the
  pool lifecycle;
* per-task ``par.chunk`` wrapper spans carry ``worker_pid``,
  ``chunk_index``, and recorder-relative ``t0_ms``/``t1_ms`` offsets,
  from which per-worker lanes (a Gantt chart) are rebuilt.

Every span subtree containing a ``par.dispatch`` child is one
**parallel region**.  Its wall clock is attributed exactly — the
buckets sum to the region's parallel elapsed time by construction:

========== ==========================================================
bucket     meaning
========== ==========================================================
stage      parent-side task building / fork-state staging
fork       executor construction (workers fork lazily, so ~0; the
           real fork+init cost surfaces as ``dispatch`` residual)
compute    time every worker was busy at once (min worker busy)
imbalance  max−min worker busy: chunks that finished unevenly
dispatch   dispatch-window residual: fork+init, IPC, scheduling
merge      parent-side payload merge
other      clamping loss when chunk clocks disagree with the window
========== ==========================================================

``repro obs timeline <run.json>`` renders the report in the terminal;
the HTML dashboard embeds the same text (see
:func:`repro.obs.report.dashboard_sections`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.obs.manifest import RunManifest
from repro.obs.recorder import SpanRecord

#: Timeline JSON schema; bump on breaking layout changes.
TIMELINE_SCHEMA = 2

PHASE_STAGE = "par.stage"
PHASE_FORK = "par.fork"
PHASE_DISPATCH = "par.dispatch"
PHASE_MERGE = "par.merge"
CHUNK_SPAN = "par.chunk"

_PHASE_NAMES = (PHASE_STAGE, PHASE_FORK, PHASE_DISPATCH, PHASE_MERGE)

#: Attribution buckets, report order.  They always sum to the parallel
#: elapsed time, so "attributed fraction" is 1.0 by construction and
#: the interesting number is how the total splits.
BUCKETS = (
    "stage", "fork", "compute", "imbalance", "dispatch", "merge", "other",
)

#: Coverage-quantised Gantt cells, blank through full.
_GANTT_LEVELS = " ░▒▓█"


@dataclass(frozen=True)
class ChunkInterval:
    """One merged worker chunk on the parent's monotonic axis."""

    worker_pid: int
    chunk_index: int
    t0_ms: float
    t1_ms: float
    cpu_ms: float
    spans: int

    @property
    def wall_ms(self) -> float:
        return max(0.0, self.t1_ms - self.t0_ms)


@dataclass
class WorkerLane:
    """Every chunk one worker process executed, in time order."""

    worker_id: int
    pid: int
    chunks: list[ChunkInterval] = field(default_factory=list)

    @property
    def busy_ms(self) -> float:
        return sum(c.wall_ms for c in self.chunks)


@dataclass
class Region:
    """One parallel fan-out: a span subtree with a ``par.dispatch``."""

    path: str
    label: str
    workers: int
    phase_ms: dict[str, float]
    lanes: list[WorkerLane]

    @property
    def elapsed_ms(self) -> float:
        """The region's parallel wall clock: the four phases end to end."""
        return sum(self.phase_ms.values())

    def attribution(self) -> dict[str, float]:
        """Bucket -> ms; sums to :attr:`elapsed_ms` exactly."""
        dispatch = self.phase_ms.get(PHASE_DISPATCH, 0.0)
        busy = [lane.busy_ms for lane in self.lanes]
        # Workers the dispatch configured but no chunk reached count as
        # idle lanes: their zero busy time is real imbalance.
        busy += [0.0] * max(0, self.workers - len(busy))
        # Worker clocks can slightly overrun the dispatch window (the
        # parent stamps par.dispatch closed only after the last payload
        # unpickles), so busy times are clamped into the window; the
        # overrun would otherwise drive the residual negative.
        busy_min = min(busy, default=0.0)
        busy_max = max(busy, default=0.0)
        compute = min(busy_min, dispatch)
        imbalance = min(busy_max, dispatch) - compute
        residual = dispatch - compute - imbalance
        return {
            "stage": self.phase_ms.get(PHASE_STAGE, 0.0),
            "fork": self.phase_ms.get(PHASE_FORK, 0.0),
            "compute": compute,
            "imbalance": imbalance,
            "dispatch": residual,
            "merge": self.phase_ms.get(PHASE_MERGE, 0.0),
            # Reserved for wall time the model cannot place; the clamps
            # above keep the partition exact, so this stays 0 today.
            "other": 0.0,
        }


@dataclass
class Timeline:
    """The parallel-execution picture of one recorded run."""

    run_id: str
    label: str
    total_wall_ms: float
    regions: list[Region]

    @property
    def parallel_elapsed_ms(self) -> float:
        return sum(r.elapsed_ms for r in self.regions)

    def attribution(self) -> dict[str, float]:
        """Run-level bucket -> ms over every region."""
        totals = dict.fromkeys(BUCKETS, 0.0)
        for region in self.regions:
            for bucket, ms in region.attribution().items():
                totals[bucket] += ms
        return totals


# ----------------------------------------------------------------------
# Reconstruction
# ----------------------------------------------------------------------
def _chunk_from_span(record: SpanRecord) -> ChunkInterval | None:
    attrs = record.attrs
    if "t0_ms" not in attrs or "t1_ms" not in attrs:
        return None
    return ChunkInterval(
        worker_pid=int(attrs.get("worker_pid", 0)),  # type: ignore[call-overload]
        chunk_index=int(attrs.get("chunk_index", -1)),  # type: ignore[call-overload]
        t0_ms=float(attrs["t0_ms"]),  # type: ignore[arg-type]
        t1_ms=float(attrs["t1_ms"]),  # type: ignore[arg-type]
        cpu_ms=record.cpu_ms,
        spans=len(record.children),
    )


def _lanes_from_chunks(chunks: list[ChunkInterval]) -> list[WorkerLane]:
    """Group chunks into per-pid lanes; worker ids rank by first start."""
    by_pid: dict[int, list[ChunkInterval]] = {}
    for chunk in chunks:
        by_pid.setdefault(chunk.worker_pid, []).append(chunk)
    ordered = sorted(
        by_pid.items(),
        key=lambda item: (min(c.t0_ms for c in item[1]), item[0]),
    )
    return [
        WorkerLane(
            worker_id=worker_id,
            pid=pid,
            chunks=sorted(pid_chunks, key=lambda c: (c.t0_ms, c.chunk_index)),
        )
        for worker_id, (pid, pid_chunks) in enumerate(ordered)
    ]


def _walk_regions(
    record: SpanRecord, path: str
) -> Iterator[tuple[str, SpanRecord]]:
    """Pre-order ``(path, span)`` over spans that own a ``par.dispatch``."""
    here = f"{path}/{record.name}" if path else record.name
    if any(child.name == PHASE_DISPATCH for child in record.children):
        yield here, record
    for child in record.children:
        yield from _walk_regions(child, here)


def build_timeline(manifest: RunManifest) -> Timeline:
    """Reconstruct the parallel timeline of one run manifest."""
    regions: list[Region] = []
    for path, parent in _walk_regions(manifest.root, ""):
        phase_ms = dict.fromkeys(_PHASE_NAMES, 0.0)
        workers = 0
        for child in parent.children:
            if child.name in phase_ms:
                phase_ms[child.name] += child.wall_ms
            if child.name == PHASE_DISPATCH:
                workers = max(
                    workers,
                    int(child.attrs.get("workers", 0)),  # type: ignore[call-overload]
                )
        chunks = [
            chunk
            for span in parent.find_all(CHUNK_SPAN)
            if (chunk := _chunk_from_span(span)) is not None
        ]
        regions.append(Region(
            path=path,
            label=parent.name,
            workers=workers or len({c.worker_pid for c in chunks}),
            phase_ms=phase_ms,
            lanes=_lanes_from_chunks(chunks),
        ))
    return Timeline(
        run_id=manifest.run_id,
        label=manifest.label,
        total_wall_ms=manifest.root.wall_ms,
        regions=regions,
    )


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _gantt_row(
    lane: WorkerLane, t_lo: float, t_hi: float, width: int
) -> str:
    """One worker's lane, coverage-quantised into ``width`` cells."""
    span = max(t_hi - t_lo, 1e-9)
    cell = span / width
    out = []
    for index in range(width):
        c_lo = t_lo + index * cell
        c_hi = c_lo + cell
        covered = sum(
            max(0.0, min(chunk.t1_ms, c_hi) - max(chunk.t0_ms, c_lo))
            for chunk in lane.chunks
        )
        coverage = min(1.0, covered / cell)
        level = round(coverage * (len(_GANTT_LEVELS) - 1))
        if coverage > 0.02:
            level = max(1, level)
        out.append(_GANTT_LEVELS[level])
    return "".join(out)


def _attribution_table(attribution: dict[str, float], indent: str) -> list[str]:
    elapsed = sum(attribution.values())
    lines = [f"{indent}{'bucket':10}  {'wall ms':>10}  {'%':>6}"]
    for bucket in BUCKETS:
        ms = attribution.get(bucket, 0.0)
        pct = 100.0 * ms / elapsed if elapsed > 0.0 else 0.0
        lines.append(f"{indent}{bucket:10}  {ms:10.1f}  {pct:6.1f}")
    return lines


def render_region(region: Region, *, width: int = 64) -> str:
    """Terminal report for one region: phases, Gantt lanes, attribution."""
    lines = [
        f"region {region.path}  "
        f"(workers={region.workers}, elapsed {region.elapsed_ms:.1f} ms)"
    ]
    for phase in _PHASE_NAMES:
        lines.append(f"  {phase:14}  {region.phase_ms.get(phase, 0.0):10.1f} ms")
    chunks = [chunk for lane in region.lanes for chunk in lane.chunks]
    if chunks:
        t_lo = min(chunk.t0_ms for chunk in chunks)
        t_hi = max(chunk.t1_ms for chunk in chunks)
        lines.append(
            f"  worker lanes  [{t_lo:.1f} ms .. {t_hi:.1f} ms]  "
            f"({_GANTT_LEVELS[1]}..{_GANTT_LEVELS[-1]} = chunk coverage)"
        )
        for lane in region.lanes:
            row = _gantt_row(lane, t_lo, t_hi, width)
            lines.append(
                f"  w{lane.worker_id} |{row}| "
                f"busy {lane.busy_ms:8.1f} ms, {len(lane.chunks)} chunk(s)"
            )
    else:
        lines.append("  (no worker chunks recorded)")
    lines.append("  attribution:")
    lines.extend(_attribution_table(region.attribution(), "    "))
    return "\n".join(lines)


def render_timeline(timeline: Timeline, *, width: int = 64) -> str:
    """The full terminal report for one run's parallel timeline."""
    if not timeline.regions:
        return (
            "no parallel regions recorded: the run was serial "
            "(REPRO_WORKERS unset or <2) or predates phase spans"
        )
    header = [
        f"run       {timeline.run_id}",
        f"label     {timeline.label}",
        f"wall      {timeline.total_wall_ms / 1000.0:.2f}s total, "
        f"{timeline.parallel_elapsed_ms / 1000.0:.2f}s in "
        f"{len(timeline.regions)} parallel region(s)",
    ]
    parts = ["\n".join(header)]
    parts.extend(
        render_region(region, width=width) for region in timeline.regions
    )
    attribution = timeline.attribution()
    elapsed = sum(attribution.values())
    attributed_pct = 100.0 if elapsed > 0.0 else 0.0
    run_pct = (
        100.0 * elapsed / timeline.total_wall_ms
        if timeline.total_wall_ms > 0.0 else 0.0
    )
    summary = ["overall attribution:"]
    summary.extend(_attribution_table(attribution, "  "))
    summary.append(
        f"attributed {attributed_pct:.1f}% of {elapsed:.1f} ms parallel "
        f"wall time to named buckets ({run_pct:.1f}% of run wall)"
    )
    parts.append("\n".join(summary))
    return "\n\n".join(parts)


def timeline_to_dict(timeline: Timeline) -> dict[str, object]:
    """JSON-serialisable form (the CI artifact)."""
    return {
        "schema": TIMELINE_SCHEMA,
        "run_id": timeline.run_id,
        "label": timeline.label,
        "total_wall_ms": round(timeline.total_wall_ms, 3),
        "parallel_elapsed_ms": round(timeline.parallel_elapsed_ms, 3),
        "attribution_ms": {
            k: round(v, 3) for k, v in timeline.attribution().items()
        },
        "regions": [
            {
                "path": region.path,
                "label": region.label,
                "workers": region.workers,
                "elapsed_ms": round(region.elapsed_ms, 3),
                "phase_ms": {
                    k: round(v, 3) for k, v in region.phase_ms.items()
                },
                "attribution_ms": {
                    k: round(v, 3) for k, v in region.attribution().items()
                },
                "lanes": [
                    {
                        "worker_id": lane.worker_id,
                        "pid": lane.pid,
                        "busy_ms": round(lane.busy_ms, 3),
                        "chunks": [
                            {
                                "chunk_index": chunk.chunk_index,
                                "t0_ms": round(chunk.t0_ms, 3),
                                "t1_ms": round(chunk.t1_ms, 3),
                                "cpu_ms": round(chunk.cpu_ms, 3),
                                "spans": chunk.spans,
                            }
                            for chunk in lane.chunks
                        ],
                    }
                    for lane in region.lanes
                ],
            }
            for region in timeline.regions
        ],
    }
