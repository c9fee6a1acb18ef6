"""Append-only benchmark history and run-to-run trend analysis.

``repro.obs.manifest`` makes one run explainable; this module makes
twenty runs comparable.  A history directory (``obs/history/`` by
convention) holds one JSONL file per run label; every line is one
:class:`TrendRecord` — the wall-time series of a run, keyed by stable
span *names* (``experiment.fig4``, ``world.build``) or benchmark test
names.  Records are ingested from run manifests (``run-<id>.json``) or
from the merged benchmark artifact (``BENCH_obs.json``), and the store
is append-only: ``repro obs ingest`` adds a line, nothing rewrites.

``repro obs trend`` renders each series as a sparkline and flags
regressions with a robust rule: the latest value is compared against the
median of the previous ``window`` runs, and flagged when it exceeds both
``median * (1 + min_rel_pct/100)`` and ``median + mad_k * 1.4826 * MAD``
(the MAD term vanishes on flat histories, so the relative floor is what
catches a clean 2x jump).  Under ``--gate`` a flagged regression exits
non-zero, which is what lets CI accumulate the BENCH trajectory *and*
act on it.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Iterable

from repro.obs.manifest import RunManifest, new_run_id

#: Conventional history location, relative to the repo / working dir.
DEFAULT_HISTORY_DIR = Path("obs/history")

#: Trend record schema; bump on breaking layout changes.
TREND_SCHEMA = 1

#: Span names whose wall time is worth tracking across runs, by prefix.
_SERIES_PREFIXES = ("experiment.", "world.", "routing.", "experiments.",
                    "par.")

#: 1 / Phi^-1(3/4): scales a MAD to a normal-consistent sigma.
_MAD_SIGMA = 1.4826


def metric_unit(metric: str) -> str:
    """Display unit of one series metric.

    Wall-time series are milliseconds; ``mem.*`` series carry KiB
    except old histories' structure-census ``bytes_per_*`` series, in
    bytes.  The median+MAD detector is unit-agnostic (for memory, bigger
    is worse exactly as for time), so only rendering needs to know.
    """
    if metric.startswith("mem."):
        return "B" if ".bytes_per_" in metric or metric.startswith("mem.bytes_per_") else "KiB"
    return "ms"

_LABEL_SAFE = re.compile(r"[^A-Za-z0-9._-]+")


@dataclass(frozen=True)
class TrendRecord:
    """One run's contribution to the history of a label."""

    run_id: str
    label: str
    kind: str  # "manifest" or "bench"
    config: str | None
    git_sha: str | None
    total_wall_ms: float
    #: metric name -> wall ms; keys are stable span names or bench ids.
    series: dict[str, float] = field(default_factory=dict)
    #: Execution environment of the run (``cpu_count``, ``workers``,
    #: ``mode``, ``bench_workers``); keys the crossover analyzer
    #: (:mod:`repro.obs.speedup`) uses to group comparable runs.
    env: dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict[str, object]:
        data: dict[str, object] = {
            "schema": TREND_SCHEMA,
            "run_id": self.run_id,
            "label": self.label,
            "kind": self.kind,
            "config": self.config,
            "git_sha": self.git_sha,
            "total_wall_ms": round(self.total_wall_ms, 3),
            "series": {k: round(v, 3) for k, v in sorted(self.series.items())},
        }
        if self.env:
            data["env"] = dict(sorted(self.env.items()))
        return data

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "TrendRecord":
        series = data.get("series", {})
        if not isinstance(series, dict):
            raise ValueError("trend record 'series' must be a mapping")
        env = data.get("env", {})
        return cls(
            run_id=str(data.get("run_id", "")),
            label=str(data.get("label", "run")),
            kind=str(data.get("kind", "manifest")),
            config=(None if data.get("config") is None
                    else str(data.get("config"))),
            git_sha=(None if data.get("git_sha") is None
                     else str(data.get("git_sha"))),
            total_wall_ms=float(data.get("total_wall_ms", 0.0)),  # type: ignore[arg-type]
            series={str(k): float(v) for k, v in series.items()},
            env=dict(env) if isinstance(env, dict) else {},
        )


# ----------------------------------------------------------------------
# Ingestion
# ----------------------------------------------------------------------
def record_from_manifest(manifest: RunManifest) -> TrendRecord:
    """Distill a run manifest into its trend series.

    Series keys are span *names* (summed over every occurrence in the
    tree), not slash paths — the same experiment must line up across
    ``repro run``, the runner, and the bench suite even though their
    root labels differ.
    """
    series: dict[str, float] = {}
    for _, record in manifest.root.walk():
        if record.name.startswith(_SERIES_PREFIXES):
            series[record.name] = series.get(record.name, 0.0) + record.wall_ms
    # Every manifest carries the root's peak-RSS growth: the run's one
    # memory series.
    series["mem.rss_peak_kib"] = float(manifest.root.rss_peak_delta_kib)
    return TrendRecord(
        run_id=manifest.run_id,
        label=manifest.label,
        kind="manifest",
        config=manifest.config_name,
        git_sha=manifest.git_sha,
        total_wall_ms=manifest.root.wall_ms,
        series=series,
    )


def record_from_bench(data: dict[str, object]) -> TrendRecord:
    """Distill a merged ``BENCH_obs.json`` artifact into a trend record."""
    series: dict[str, float] = {}
    experiments = data.get("experiments", {})
    if isinstance(experiments, dict):
        for name, entry in experiments.items():
            if isinstance(entry, dict) and "wall_ms" in entry:
                series[f"experiment.{name}"] = float(entry["wall_ms"])  # type: ignore[arg-type]
    benchmarks = data.get("benchmarks", {})
    if isinstance(benchmarks, dict):
        for name, wall_ms in benchmarks.items():
            series[f"bench.{name}"] = float(wall_ms)  # type: ignore[arg-type]
    config = data.get("config")
    git_sha = data.get("git_sha")
    env = {
        key: data[key]
        for key in ("cpu_count", "workers", "mode", "bench_workers")
        if key in data
    }
    return TrendRecord(
        run_id=str(data.get("run_id") or new_run_id()),
        label=str(data.get("label", "bench")),
        kind="bench",
        config=None if config is None else str(config),
        git_sha=None if git_sha is None else str(git_sha),
        total_wall_ms=float(data.get("total_wall_ms", 0.0)),  # type: ignore[arg-type]
        series=series,
        env=env,
    )


def record_from_file(path: Path | str) -> TrendRecord:
    """Ingest either artifact kind: run manifest or BENCH_obs.json."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"not an obs artifact: {path}")
    if "spans" in data:
        return record_from_manifest(RunManifest.from_dict(data))
    if "experiments" in data or "benchmarks" in data:
        return record_from_bench(data)
    raise ValueError(
        f"{path}: neither a run manifest (no 'spans') nor a BENCH artifact "
        "(no 'experiments'/'benchmarks')"
    )


def history_file(history_dir: Path | str, label: str) -> Path:
    """The JSONL file one label's records append to."""
    safe = _LABEL_SAFE.sub("-", label) or "run"
    return Path(history_dir) / f"{safe}.jsonl"


def _existing_run_ids(path: Path) -> set[str]:
    """Run ids already present in one history file (torn tail tolerated)."""
    if not path.exists():
        return set()
    run_ids: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail; load_label_history skips it too
            if isinstance(data, dict) and "run_id" in data:
                run_ids.add(str(data["run_id"]))
    return run_ids


def append_record(
    history_dir: Path | str, record: TrendRecord, *, dedupe: bool = True
) -> Path | None:
    """Append one record to its label's history file (created if missing).

    With ``dedupe`` (the default), a record whose run id is already in
    the file is skipped and None is returned — re-ingesting the same
    manifest is idempotent instead of double-counting a run.
    """
    path = history_file(history_dir, record.label)
    if dedupe and record.run_id in _existing_run_ids(path):
        return None
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record.to_dict(), separators=(",", ":"),
                            default=str) + "\n")
    return path


def load_label_history(path: Path | str) -> list[TrendRecord]:
    """Records of one history file, oldest first.

    A truncated final line (a run killed mid-append) is tolerated and
    skipped, matching :func:`repro.obs.events.read_events`.
    """
    records: list[TrendRecord] = []
    with open(path, encoding="utf-8") as fh:
        lines = [line.strip() for line in fh]
    for index, line in enumerate(lines):
        if not line:
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError:
            if any(later for later in lines[index + 1:]):
                raise
            break  # torn tail write; the prefix is still usable
        if isinstance(data, dict):
            records.append(TrendRecord.from_dict(data))
    records.sort(key=lambda r: r.run_id)
    return records


def load_history(history_dir: Path | str) -> dict[str, list[TrendRecord]]:
    """Every label's records under a history directory, oldest first."""
    directory = Path(history_dir)
    if not directory.is_dir():
        return {}
    history: dict[str, list[TrendRecord]] = {}
    for path in sorted(directory.glob("*.jsonl")):
        records = load_label_history(path)
        if records:
            history[records[-1].label] = records
    return history


# ----------------------------------------------------------------------
# Regression detection
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Regression:
    """The latest run is slower than its recent history says it should be."""

    label: str
    metric: str
    value_ms: float
    baseline_ms: float
    threshold_ms: float
    window: int

    @property
    def delta_pct(self) -> float:
        if self.baseline_ms <= 0.0:
            return 0.0
        return 100.0 * (self.value_ms - self.baseline_ms) / self.baseline_ms

    def render(self) -> str:
        unit = metric_unit(self.metric)
        return (
            f"{self.label}/{self.metric}: {self.value_ms:.1f} {unit} "
            f"vs median {self.baseline_ms:.1f} {unit} over last "
            f"{self.window} runs ({self.delta_pct:+.1f}%, threshold "
            f"{self.threshold_ms:.1f} {unit})"
        )


def detect_regressions(
    records: list[TrendRecord],
    *,
    window: int = 20,
    mad_k: float = 4.0,
    min_rel_pct: float = 25.0,
    min_wall_ms: float = 25.0,
    min_history: int = 3,
) -> list[Regression]:
    """Robust median+MAD check of the latest record against its history.

    For each metric in the latest record with at least ``min_history``
    prior observations inside ``window``: flag when the latest value
    exceeds *both* ``median * (1 + min_rel_pct/100)`` and
    ``median + mad_k * 1.4826 * MAD``.  Metrics where both sides sit
    under ``min_wall_ms`` are timing noise and never flag.
    """
    if len(records) < 2:
        return []
    latest = records[-1]
    prior = records[-(window + 1):-1]
    regressions: list[Regression] = []
    for metric in sorted(latest.series):
        value = latest.series[metric]
        history = [r.series[metric] for r in prior if metric in r.series]
        if len(history) < min_history:
            continue
        baseline = median(history)
        if max(value, baseline) < min_wall_ms:
            continue
        mad = median(abs(v - baseline) for v in history)
        threshold = max(
            baseline * (1.0 + min_rel_pct / 100.0),
            baseline + mad_k * _MAD_SIGMA * mad,
        )
        if value > threshold:
            regressions.append(
                Regression(
                    label=latest.label,
                    metric=metric,
                    value_ms=value,
                    baseline_ms=baseline,
                    threshold_ms=threshold,
                    window=len(history),
                )
            )
    regressions.sort(key=lambda r: (-r.delta_pct, r.metric))
    return regressions


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def render_trend(
    history: dict[str, list[TrendRecord]],
    *,
    top: int = 12,
    window: int = 20,
    regressions: dict[str, list[Regression]] | None = None,
) -> str:
    """Per-label sparkline report over every tracked metric."""
    # Lazily imported: the obs core stays stdlib-only at import time,
    # and repro.analysis pulls in numpy via its CDF machinery.
    from repro.analysis.asciiplot import render_sparkline

    if not history:
        return "no history recorded (ingest manifests with `repro obs ingest`)"
    lines: list[str] = []
    flagged = {
        (reg.label, reg.metric)
        for regs in (regressions or {}).values()
        for reg in regs
    }
    for label in sorted(history):
        records = history[label][-window:]
        latest = records[-1]
        if lines:
            lines.append("")
        sha = (latest.git_sha or "-")[:10]
        lines.append(
            f"{label}: {len(history[label])} run(s), latest "
            f"{latest.run_id} (git {sha}, "
            f"total {latest.total_wall_ms / 1000.0:.2f}s)"
        )
        metrics = sorted(
            latest.series, key=lambda m: (-latest.series[m], m)
        )[:top]
        if not metrics:
            lines.append("  (no series recorded)")
            continue
        width = max(len(m) for m in metrics)
        for metric in metrics:
            values = [r.series[metric] for r in records if metric in r.series]
            spark = render_sparkline(values, width=window)
            base = median(values[:-1]) if len(values) > 1 else values[-1]
            delta = (
                100.0 * (values[-1] - base) / base if base > 0.0 else 0.0
            )
            mark = "  << REGRESSION" if (label, metric) in flagged else ""
            unit = metric_unit(metric)
            lines.append(
                f"  {metric:{width}}  {spark}  {values[-1]:9.1f} {unit:<3} "
                f"(median {base:.1f}, {delta:+.1f}%){mark}"
            )
    all_regs = [r for regs in (regressions or {}).values() for r in regs]
    lines.append("")
    if all_regs:
        lines.append(f"REGRESSION: {len(all_regs)} metric(s) above the "
                     "median+MAD threshold:")
        lines.extend(f"  {reg.render()}" for reg in all_regs)
    else:
        lines.append("ok: latest runs are within their historical envelope")
    return "\n".join(lines)


def check_history(
    history_dir: Path | str,
    *,
    window: int = 20,
    top: int = 12,
    mad_k: float = 4.0,
    min_rel_pct: float = 25.0,
    min_wall_ms: float = 25.0,
) -> tuple[str, list[Regression]]:
    """Load, analyse, and render a history directory in one call."""
    history = load_history(history_dir)
    regressions = {
        label: detect_regressions(
            records, window=window, mad_k=mad_k,
            min_rel_pct=min_rel_pct, min_wall_ms=min_wall_ms,
        )
        for label, records in history.items()
    }
    regressions = {k: v for k, v in regressions.items() if v}
    text = render_trend(history, top=top, window=window,
                        regressions=regressions)
    return text, [r for regs in regressions.values() for r in regs]


def ingest_files(
    history_dir: Path | str, paths: Iterable[Path | str]
) -> list[tuple[TrendRecord, bool]]:
    """Append every artifact in ``paths`` to the history.

    Returns ``(record, appended)`` pairs; ``appended`` is False for
    records whose run id was already in the history (idempotent
    re-ingest, e.g. the same manifest passed twice or a CI retry).
    """
    results = []
    for path in paths:
        record = record_from_file(path)
        appended = append_record(history_dir, record) is not None
        results.append((record, appended))
    return results
