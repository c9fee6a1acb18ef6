"""Serial-vs-parallel crossover report over the benchmark history.

The bench suite records serial/parallel pairs (``bench.<name>_serial``
/ ``bench.<name>_parallel`` in the :mod:`repro.obs.trend` history, with
``cpu_count`` / ``bench_workers`` in each record's ``env``), and this
report turns those pairs into:

* observed **speedup** (serial wall / parallel wall) per metric, per
  worker count, per host CPU count — median over the history, so one
  noisy run does not flip the verdict;
* **parallel efficiency** (speedup / workers), the number that exposes
  "4 workers for 0.5x" as the 8x waste it is;
* a ``REPRO_WORKERS`` **recommendation** per config and metric —
  including "use serial" whenever the best observed speedup stays under
  :data:`CROSSOVER_MARGIN`.

It gates nothing: the trend gate (``repro obs trend --gate``) judges
each pair's ``bench.<name>.parallel_pct`` series instead.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from statistics import median

from repro.obs.trend import TrendRecord, load_history, serial_parallel_pairs

#: Parallel must beat serial by this factor before it is recommended;
#: under it the dispatch overhead is buying nothing but complexity.
CROSSOVER_MARGIN = 1.05


@dataclass(frozen=True)
class SpeedupPoint:
    """One run's serial/parallel wall-time pair for one metric."""

    run_id: str
    git_sha: str | None
    serial_ms: float
    parallel_ms: float

    @property
    def speedup(self) -> float:
        """Serial wall / parallel wall; >1 means parallel wins."""
        if self.parallel_ms <= 0.0:
            return 0.0
        return self.serial_ms / self.parallel_ms


@dataclass
class SpeedupGroup:
    """Every comparable observation of one metric's crossover."""

    config: str | None
    metric: str
    workers: int
    cpu_count: int
    points: list[SpeedupPoint]

    @property
    def latest(self) -> SpeedupPoint:
        return self.points[-1]

    @property
    def median_speedup(self) -> float:
        return median(p.speedup for p in self.points)

    @property
    def efficiency(self) -> float:
        """Median speedup divided by worker count (1.0 = perfect scaling)."""
        if self.workers <= 0:
            return 0.0
        return self.median_speedup / self.workers

    @property
    def parallel_wins(self) -> bool:
        return self.median_speedup >= CROSSOVER_MARGIN

    def key(self) -> tuple[str, str, int, int]:
        return (self.config or "-", self.metric, self.workers, self.cpu_count)


@dataclass(frozen=True)
class Recommendation:
    """The worker count one (config, metric) should run with."""

    config: str | None
    metric: str
    use_serial: bool
    workers: int
    speedup: float
    efficiency: float

    def render(self) -> str:
        where = f"{self.config or '-'}/{self.metric}"
        if self.use_serial:
            return (
                f"{where}: use serial — best observed speedup "
                f"{self.speedup:.2f}x at {self.workers} workers "
                f"(efficiency {self.efficiency:.2f}, crossover needs "
                f">={CROSSOVER_MARGIN:.2f}x)"
            )
        return (
            f"{where}: REPRO_WORKERS={self.workers} "
            f"({self.speedup:.2f}x, efficiency {self.efficiency:.2f})"
        )


# ----------------------------------------------------------------------
# Extraction
# ----------------------------------------------------------------------
@lru_cache(maxsize=1)
def _known_config_names() -> tuple[str, ...]:
    """Preset names, smallest tier first (import deferred: obs stays
    importable without the experiments package)."""
    from repro.experiments.config import CONFIGS

    return tuple(config.name for config in CONFIGS)


def _metric_config(metric: str, fallback: str | None) -> str | None:
    """The world tier a bench metric belongs to.

    Bench series embed the tier in the test name
    (``bench.test_bench_compute_many_large``) while the artifact carries
    a single top-level ``config`` stamp; without this, a LARGE pair
    recorded by a small-stamped artifact would group under the wrong
    tier and poison both medians.  Metrics naming no known preset fall
    through to the record's own config — a series is never dropped for
    carrying an unknown config token.
    """
    tokens = set(re.split(r"[._]", metric))
    for name in _known_config_names():
        if name in tokens:
            return name
    return fallback


def _env_int(record: TrendRecord, key: str) -> int:
    value = record.env.get(key, 0)
    try:
        return int(value)  # type: ignore[call-overload]
    except (TypeError, ValueError):
        return 0


def extract_groups(records: list[TrendRecord]) -> list[SpeedupGroup]:
    """Group serial/parallel pairs by (config, metric, workers, cpus).

    ``records`` must be oldest-first (the order the history store
    yields); each group's points preserve it so "latest" is well
    defined.
    """
    grouped: dict[tuple[str, str, int, int], SpeedupGroup] = {}
    for record in records:
        workers = (_env_int(record, "bench_workers")
                   or _env_int(record, "workers"))
        cpu_count = _env_int(record, "cpu_count")
        pairs = serial_parallel_pairs(record.series)
        for metric, (serial_ms, parallel_ms) in pairs.items():
            group = SpeedupGroup(
                config=_metric_config(metric, record.config),
                metric=metric,
                workers=workers,
                cpu_count=cpu_count,
                points=[],
            )
            group = grouped.setdefault(group.key(), group)
            group.points.append(SpeedupPoint(
                run_id=record.run_id,
                git_sha=record.git_sha,
                serial_ms=serial_ms,
                parallel_ms=parallel_ms,
            ))
    return [grouped[key] for key in sorted(grouped)]


def groups_from_history(history_dir: Path | str) -> list[SpeedupGroup]:
    """Extract speedup groups from every label in a trend history."""
    records = [
        record
        for label_records in load_history(history_dir).values()
        for record in label_records
    ]
    records.sort(key=lambda r: r.run_id)
    return extract_groups(records)


def recommend(groups: list[SpeedupGroup]) -> list[Recommendation]:
    """Per (config, metric): the best worker count, or "use serial"."""
    by_target: dict[tuple[str, str], list[SpeedupGroup]] = {}
    for group in groups:
        if not group.points:
            continue
        by_target.setdefault((group.config or "-", group.metric),
                             []).append(group)
    recommendations = []
    for (config, metric) in sorted(by_target):
        candidates = by_target[(config, metric)]
        best = max(candidates, key=lambda g: g.median_speedup)
        recommendations.append(Recommendation(
            config=None if config == "-" else config,
            metric=metric,
            use_serial=not best.parallel_wins,
            workers=best.workers,
            speedup=best.median_speedup,
            efficiency=best.efficiency,
        ))
    return recommendations


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def render_speedup(groups: list[SpeedupGroup]) -> str:
    """The crossover report: per-group speedups, then recommendations."""
    if not groups:
        return (
            "no serial/parallel pairs in the history: run the bench "
            "suite (pytest benchmarks/) and `repro obs ingest` the "
            "BENCH artifact first"
        )
    lines = ["parallel speedup (serial wall / parallel wall):"]
    for group in groups:
        latest = group.latest
        cpu = f"{group.cpu_count} cpu(s)" if group.cpu_count else "cpu ?"
        lines.append(
            f"  {group.config or '-'}/{group.metric}  "
            f"[{group.workers} workers, {cpu}, n={len(group.points)}]"
        )
        lines.append(
            f"    serial {latest.serial_ms:9.1f} ms   parallel "
            f"{latest.parallel_ms:9.1f} ms   speedup "
            f"{latest.speedup:5.2f}x (median {group.median_speedup:.2f}x, "
            f"efficiency {group.efficiency:.2f})"
        )
    lines.append("")
    lines.append("recommendations:")
    lines.extend(f"  {rec.render()}" for rec in recommend(groups))
    return "\n".join(lines)
