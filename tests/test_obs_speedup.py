"""Tests for repro.obs.speedup: the crossover report over bench history.

The acceptance-critical case: on the SMALL world parallel *loses*
(serial ~4.9s vs parallel ~10.3s at 4 workers), and the report must say
"use serial" with efficiency well under 1 from the history alone.  The
report gates nothing: TestGate checks that the trend gate judges the
same speedups through each pair's ratio series.
"""

from __future__ import annotations

import pytest

from repro import cli
from repro.obs.speedup import (
    CROSSOVER_MARGIN,
    extract_groups,
    groups_from_history,
    recommend,
    render_speedup,
)
from repro.obs.trend import (
    RATIO_SUFFIX,
    TrendRecord,
    append_record,
    detect_regressions,
    record_from_bench,
)


def _bench_record(
    i: int,
    serial_ms: float,
    parallel_ms: float,
    *,
    workers: int = 4,
    cpu_count: int = 8,
    metric: str = "bench.test_bench_world_build",
) -> TrendRecord:
    return TrendRecord(
        run_id=f"r{i:03d}",
        label="bench",
        kind="bench",
        config="SMALL",
        git_sha="deadbeef",
        total_wall_ms=serial_ms + parallel_ms,
        series={
            f"{metric}_serial": serial_ms,
            f"{metric}_parallel": parallel_ms,
        },
        env={
            "cpu_count": cpu_count,
            "workers": 1,
            "mode": "serial",
            "bench_workers": workers,
        },
    )


def _losing_history(n: int = 4) -> list[TrendRecord]:
    """SMALL-world reality: serial 4.9s, parallel 10.3s at 4 workers."""
    return [_bench_record(i, 4900.0, 10300.0) for i in range(n)]


def _ingested(i: int, serial_ms: float, parallel_ms: float) -> TrendRecord:
    """The record `repro obs ingest` makes of one bench artifact's pair."""
    return record_from_bench({
        "run_id": f"r{i:03d}",
        "label": "bench",
        "config": "SMALL",
        "benchmarks": {
            "test_bench_world_build_serial": serial_ms,
            "test_bench_world_build_parallel": parallel_ms,
        },
        "cpu_count": 8,
        "bench_workers": 4,
    })


#: The gated series of the world-build pair: parallel as % of serial.
_RATIO = "bench.test_bench_world_build" + RATIO_SUFFIX


class TestExtraction:
    def test_pairs_grouped_by_config_metric_workers_cpus(self):
        groups = extract_groups(_losing_history(3))
        assert len(groups) == 1
        group = groups[0]
        assert group.config == "SMALL"
        assert group.metric == "bench.test_bench_world_build"
        assert group.workers == 4  # bench_workers wins over workers=1
        assert group.cpu_count == 8
        assert [p.run_id for p in group.points] == ["r000", "r001", "r002"]

    def test_differing_hardware_splits_groups(self):
        records = [
            _bench_record(0, 4900.0, 10300.0, cpu_count=8),
            _bench_record(1, 4900.0, 2000.0, cpu_count=32),
        ]
        groups = extract_groups(records)
        assert len(groups) == 2
        assert {g.cpu_count for g in groups} == {8, 32}

    def test_nonpositive_or_unpaired_series_skipped(self):
        record = _bench_record(0, 4900.0, 10300.0)
        record.series["bench.orphan_serial"] = 100.0  # no parallel twin
        record.series["bench.zero_serial"] = 100.0
        record.series["bench.zero_parallel"] = 0.0
        groups = extract_groups([record])
        assert [g.metric for g in groups] == ["bench.test_bench_world_build"]

    def test_metric_config_token_overrides_artifact_stamp(self):
        """A LARGE pair inside a small-stamped artifact groups as large."""
        record = _bench_record(
            0, 30000.0, 9000.0,
            metric="bench.test_bench_compute_many_large",
        )
        record.series["bench.test_bench_world_build_serial"] = 4900.0
        record.series["bench.test_bench_world_build_parallel"] = 10300.0
        groups = extract_groups([record])
        configs = {g.metric: g.config for g in groups}
        assert configs["bench.test_bench_compute_many_large"] == "large"
        assert configs["bench.test_bench_world_build"] == "SMALL"

    def test_unknown_config_bench_key_not_dropped(self):
        """Metrics naming no known preset keep their record's config."""
        from dataclasses import replace

        record = replace(
            _bench_record(
                0, 2000.0, 1000.0,
                metric="bench.test_bench_compute_many_exotic",
            ),
            config="frontier",
        )
        groups = extract_groups([record])
        assert len(groups) == 1
        assert groups[0].config == "frontier"
        assert groups[0].metric == "bench.test_bench_compute_many_exotic"
        assert groups[0].latest.speedup == pytest.approx(2.0)

    def test_groups_from_history_round_trip(self, tmp_path):
        for record in _losing_history(3):
            append_record(tmp_path, record)
        groups = groups_from_history(tmp_path)
        assert len(groups) == 1
        assert len(groups[0].points) == 3
        assert groups[0].points[0].speedup == pytest.approx(4900 / 10300)


class TestRecommendation:
    def test_small_world_history_recommends_serial(self):
        """The acceptance case: efficiency < 1, verdict 'use serial'."""
        groups = extract_groups(_losing_history())
        [rec] = recommend(groups)
        assert rec.use_serial is True
        assert rec.speedup == pytest.approx(4900 / 10300, abs=1e-3)
        assert rec.efficiency < 1.0
        assert "use serial" in rec.render()

    def test_winning_history_recommends_best_worker_count(self):
        records = (
            [_bench_record(i, 8000.0, 3000.0, workers=4) for i in range(3)]
            + [_bench_record(i + 10, 8000.0, 5000.0, workers=2)
               for i in range(3)]
        )
        [rec] = recommend(extract_groups(records))
        assert rec.use_serial is False
        assert rec.workers == 4
        assert rec.speedup >= CROSSOVER_MARGIN
        assert "REPRO_WORKERS=4" in rec.render()

    def test_median_resists_one_noisy_run(self):
        records = _losing_history(4) + [_bench_record(99, 49000.0, 1000.0)]
        [rec] = recommend(extract_groups(records))
        assert rec.use_serial is True


class TestGate:
    """Speedups are gated by the trend rule on each pair's ratio series."""

    def test_young_history_is_advisory_only(self):
        # 2 prior points < MIN_HISTORY: the collapse is reported only.
        records = [_ingested(i, 4900.0, 10300.0) for i in range(2)]
        records.append(_ingested(99, 4900.0, 30000.0))
        assert detect_regressions(records) == []
        assert "0.16x" in render_speedup(extract_groups(records))

    def test_regression_fires_after_enough_history(self):
        records = [_ingested(i, 4900.0, 10300.0) for i in range(4)]
        records.append(_ingested(99, 4900.0, 30000.0))
        [ratio] = [r for r in detect_regressions(records)
                   if r.metric == _RATIO]
        # The ratio the gate judges is the report's speedup inverted.
        [group] = extract_groups(records)
        assert ratio.value_ms == pytest.approx(100.0 / group.latest.speedup)
        assert ratio.baseline_ms == pytest.approx(
            100.0 / group.points[0].speedup
        )
        assert ratio.value_ms > ratio.baseline_ms
        assert f"{_RATIO}: 612.2 % vs median 210.2 %" in ratio.render()

    def test_flat_history_passes(self):
        records = [_ingested(i, 4900.0, 10300.0) for i in range(5)]
        assert _RATIO in records[-1].series
        assert detect_regressions(records) == []


class TestRendering:
    def test_report_names_pairs_and_recommendations(self):
        text = render_speedup(extract_groups(_losing_history()))
        assert "bench.test_bench_world_build" in text
        assert "use serial" in text
        assert "efficiency" in text

    def test_empty_history_message(self):
        assert "no serial/parallel pairs" in render_speedup([])


class TestCli:
    def test_speedup_report_from_history_exits_zero(self, tmp_path, capsys):
        for record in _losing_history(4):
            append_record(tmp_path, record)
        assert cli.main([
            "obs", "speedup", "--history", str(tmp_path),
        ]) == 0
        assert "use serial" in capsys.readouterr().out

        # A collapsed speedup is reported, never gated, by this command.
        append_record(tmp_path, _bench_record(99, 4900.0, 30000.0))
        assert cli.main([
            "obs", "speedup", "--history", str(tmp_path),
        ]) == 0
        assert "0.16x" in capsys.readouterr().out
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["obs", "speedup", "--history", str(tmp_path), "--gate"])
        assert excinfo.value.code == 2
