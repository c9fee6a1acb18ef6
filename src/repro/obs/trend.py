"""Append-only benchmark history and the one regression gate.

``repro.obs.manifest`` makes one run explainable; this module makes
twenty runs comparable.  A history directory (``obs/history/`` by
convention) holds one JSONL file per run label; every line is one
:class:`TrendRecord` — the series of a run, keyed by stable span
*names* (``experiment.fig4``, ``world.build``) or benchmark test names.
Records are ingested from run manifests (``run-<id>.json``) or from the
benchmark artifact (``BENCH_obs.json``), and the store is append-only:
``repro obs ingest`` adds a line, nothing rewrites.

A benchmark artifact records serial/parallel pairs as
``bench.<name>_serial`` / ``bench.<name>_parallel``; this is the one
module that knows those suffixes.  Ingest derives one more series per
pair, ``bench.<name>.parallel_pct`` (parallel as a percent of serial),
so a speedup that shrinks shows up as a series that rises.

``repro obs trend`` renders each series as a sparkline and flags
regressions with a robust rule: the latest value is compared against the
median of the previous ``window`` runs, and flagged when it exceeds both
``median * (1 + MIN_REL_PCT/100)`` and ``median + MAD_K * 1.4826 * MAD``
(the MAD term vanishes on flat histories, so the relative floor is what
catches a clean 2x jump).  The rule judges wall, memory and speedup
series alike.  Under ``--gate`` a flagged regression exits non-zero,
which is what lets CI accumulate the BENCH trajectory *and* act on it.
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

#: The regression rule: flag past both +MIN_REL_PCT% and MAD_K sigmas
#: over the median, once a series has MIN_HISTORY prior points; series
#: under MIN_VALUE on both sides (ms, KiB or %) are noise and never flag.
MAD_K = 4.0
MIN_REL_PCT = 25.0
MIN_VALUE = 25.0
MIN_HISTORY = 3

#: Bench series suffixes of one serial/parallel pair.
SERIAL_SUFFIX = "_serial"
PARALLEL_SUFFIX = "_parallel"

#: Suffix of the series derived from a pair: parallel wall as a percent
#: of serial wall, so lower is better as for every other series.
RATIO_SUFFIX = ".parallel_pct"


def metric_unit(metric: str) -> str:
    """Display unit of one series metric.

    Wall-time series are milliseconds; ``mem.*`` series carry KiB
    except old histories' structure-census ``bytes_per_*`` series, in
    bytes; serial/parallel ratios are percent.  The median+MAD detector
    is unit-agnostic (bigger is worse for each), so only rendering needs
    to know.
    """
    if metric.endswith(RATIO_SUFFIX):
        return "%"
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
    #: metric name -> value (unit per :func:`metric_unit`); keys are
    #: stable span names or bench ids.
    series: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict[str, object]:
        return {
            "schema": TREND_SCHEMA,
            "run_id": self.run_id,
            "label": self.label,
            "kind": self.kind,
            "config": self.config,
            "git_sha": self.git_sha,
            "total_wall_ms": round(self.total_wall_ms, 3),
            "series": {k: round(v, 3) for k, v in sorted(self.series.items())},
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "TrendRecord":
        """Load one history line.

        Keys this schema does not read are ignored, such as the ``env``
        stamp that older history lines carry.
        """
        series = data.get("series", {})
        if not isinstance(series, dict):
            raise ValueError("trend record 'series' must be a mapping")
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


def serial_parallel_pairs(
    series: dict[str, float],
) -> dict[str, tuple[float, float]]:
    """``base -> (serial, parallel)`` for every positive pair in ``series``."""
    pairs: dict[str, tuple[float, float]] = {}
    for name, serial in series.items():
        if not name.endswith(SERIAL_SUFFIX):
            continue
        base = name[: -len(SERIAL_SUFFIX)]
        parallel = series.get(base + PARALLEL_SUFFIX)
        if parallel is not None and parallel > 0.0 and serial > 0.0:
            pairs[base] = (serial, parallel)
    return pairs


def record_from_bench(data: dict[str, object]) -> TrendRecord:
    """Distill a ``BENCH_obs.json`` artifact into a trend record.

    Each serial/parallel pair also yields its ratio series
    (:data:`RATIO_SUFFIX`), which the regression rule judges like any
    wall: a speedup down 20% is a ratio up 25%.
    """
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
    for base, (serial, parallel) in serial_parallel_pairs(series).items():
        series[base + RATIO_SUFFIX] = 100.0 * parallel / serial
    config = data.get("config")
    git_sha = data.get("git_sha")
    return TrendRecord(
        run_id=str(data.get("run_id") or new_run_id()),
        label=str(data.get("label", "bench")),
        kind="bench",
        config=None if config is None else str(config),
        git_sha=None if git_sha is None else str(git_sha),
        total_wall_ms=float(data.get("total_wall_ms", 0.0)),  # type: ignore[arg-type]
        series=series,
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
    records: list[TrendRecord], *, window: int = 20
) -> list[Regression]:
    """Robust median+MAD check of the latest record against its history.

    For each metric in the latest record with at least
    :data:`MIN_HISTORY` prior observations inside ``window``: flag when
    the latest value exceeds *both* ``median * (1 + MIN_REL_PCT/100)``
    and ``median + MAD_K * 1.4826 * MAD``.  Metrics where both sides sit
    under :data:`MIN_VALUE` are noise and never flag.
    """
    if len(records) < 2:
        return []
    latest = records[-1]
    prior = records[-(window + 1):-1]
    regressions: list[Regression] = []
    for metric in sorted(latest.series):
        value = latest.series[metric]
        history = [r.series[metric] for r in prior if metric in r.series]
        if len(history) < MIN_HISTORY:
            continue
        baseline = median(history)
        if max(value, baseline) < MIN_VALUE:
            continue
        mad = median(abs(v - baseline) for v in history)
        threshold = max(
            baseline * (1.0 + MIN_REL_PCT / 100.0),
            baseline + MAD_K * _MAD_SIGMA * mad,
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
    """Per-label sparkline report over every tracked metric.

    Each label shows its ``top`` series by latest value, then every
    serial/parallel ratio series (:data:`RATIO_SUFFIX`) outside them:
    a ratio of tens of percent never ranks beside multi-second walls,
    and this report is the one place a speedup can be read.
    """
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
        ranked = sorted(latest.series, key=lambda m: (-latest.series[m], m))
        metrics = ranked[:top] + [
            m for m in ranked[top:] if m.endswith(RATIO_SUFFIX)
        ]
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
    history_dir: Path | str, *, window: int = 20, top: int = 12
) -> tuple[str, list[Regression]]:
    """Load, analyse, and render a history directory in one call."""
    history = load_history(history_dir)
    regressions = {
        label: detect_regressions(records, window=window)
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
