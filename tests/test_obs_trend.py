"""Tests for repro.obs.trend: history store and regression detection.

The acceptance-critical cases live in TestCliGate: a fabricated history
with a 2x wall-time jump makes `repro obs trend --gate` exit non-zero,
so does a speedup that shrinks while neither wall rises, and a flat
history exits zero.
"""

from __future__ import annotations

import json

import pytest

from repro import cli, obs
from repro.obs.manifest import from_recorder
from repro.obs.trend import (
    RATIO_SUFFIX,
    TrendRecord,
    append_record,
    check_history,
    detect_regressions,
    history_file,
    load_history,
    load_label_history,
    record_from_bench,
    record_from_file,
    record_from_manifest,
    render_trend,
)


def _record(i: int, wall: float, label: str = "run", **extra: float) -> TrendRecord:
    series = {"experiment.fig4": wall, **{str(k): v for k, v in extra.items()}}
    return TrendRecord(
        run_id=f"r{i:03d}",
        label=label,
        kind="manifest",
        config="SMALL",
        git_sha="deadbeef",
        total_wall_ms=sum(series.values()),
        series=series,
    )


def _flat_history(n: int = 8, wall: float = 100.0) -> list[TrendRecord]:
    return [_record(i, wall) for i in range(n)]


def _bench_artifact(i: int, serial_ms: float, parallel_ms: float) -> dict:
    """One bench session's artifact holding one serial/parallel pair."""
    return {
        "run_id": f"b{i:03d}",
        "label": "bench 8x Test CPU",
        "total_wall_ms": serial_ms + parallel_ms,
        "benchmarks": {
            "test_bench_pair_serial": serial_ms,
            "test_bench_pair_parallel": parallel_ms,
        },
    }


def _bench(i: int, serial_ms: float, parallel_ms: float) -> TrendRecord:
    return record_from_bench(_bench_artifact(i, serial_ms, parallel_ms))


#: Four runs near a 2.00x speedup, then 1.40x: the serial wall falls and
#: the parallel wall holds, so only the ratio series rises (50% -> 71%).
_SHRINKING_SPEEDUP = [
    (10000.0, 5000.0), (10100.0, 5000.0), (9900.0, 5050.0),
    (10000.0, 4950.0), (7000.0, 5000.0),
]


class TestIngestion:
    def test_record_from_manifest_keys_by_span_name(self):
        obs.uninstall()
        with obs.recording("runner") as rec:
            with obs.span("experiment.fig4"):
                with obs.span("world.build"):
                    pass
            with obs.span("experiment.fig4"):
                pass
            with obs.span("scratch"):  # no tracked prefix
                pass
        record = record_from_manifest(from_recorder(rec))
        assert record.kind == "manifest"
        # every manifest also carries the coarse peak-RSS memory series
        assert set(record.series) == {
            "experiment.fig4", "world.build", "mem.rss_peak_kib",
        }
        assert record.series["mem.rss_peak_kib"] >= 0.0
        # Two occurrences of the same span name sum into one series.
        fig4 = rec.root.children[0].wall_ms + rec.root.children[1].wall_ms
        assert record.series["experiment.fig4"] == pytest.approx(fig4)
        assert record.total_wall_ms == pytest.approx(rec.root.wall_ms)

    def test_record_from_bench_prefixes_series(self):
        record = record_from_bench({
            "label": "bench",
            "config": "SMALL",
            "git_sha": "abc",
            "total_wall_ms": 130.0,
            "experiments": {"fig4": {"wall_ms": 120.0, "cpu_ms": 110.0}},
            "benchmarks": {"test_bench_fig4": 10.5,
                           "test_bench_pair_serial": 8000.0,
                           "test_bench_pair_parallel": 2000.0},
        })
        assert record.kind == "bench"
        assert record.series == {
            "experiment.fig4": 120.0,
            "bench.test_bench_fig4": 10.5,
            "bench.test_bench_pair_serial": 8000.0,
            "bench.test_bench_pair_parallel": 2000.0,
            # Derived from the pair: parallel as a percent of serial.
            "bench.test_bench_pair.parallel_pct": 25.0,
        }
        assert record.run_id  # synthesised when the artifact has none

    def test_metric_unit(self):
        from repro.obs.trend import metric_unit

        assert metric_unit("experiment.fig4") == "ms"
        assert metric_unit("mem.rss_peak_kib") == "KiB"
        assert metric_unit("mem.census.topology_kib") == "KiB"
        assert metric_unit("mem.bytes_per_route") == "B"
        assert metric_unit("mem.bytes_per_as") == "B"
        assert metric_unit("bench.test_bench_pair.parallel_pct") == "%"

    def test_nonpositive_or_unpaired_series_skipped(self):
        record = record_from_bench({
            "benchmarks": {
                "test_pair_serial": 4900.0,
                "test_pair_parallel": 10300.0,
                "test_orphan_serial": 100.0,  # no parallel twin
                "test_zero_serial": 100.0,
                "test_zero_parallel": 0.0,
                "test_negative_serial": -1.0,
                "test_negative_parallel": 50.0,
            },
        })
        assert [m for m in record.series if m.endswith(RATIO_SUFFIX)] == [
            "bench.test_pair.parallel_pct",
        ]

    def test_par_series_prefix_tracked_from_manifests(self):
        obs.uninstall()
        with obs.recording("runner") as rec:
            with obs.span("par.dispatch"):
                pass
        record = record_from_manifest(from_recorder(rec))
        assert "par.dispatch" in record.series

    def test_record_from_file_dispatches_and_rejects(self, tmp_path):
        bench = tmp_path / "BENCH_obs.json"
        bench.write_text(json.dumps({"benchmarks": {"t": 1.0}}))
        assert record_from_file(bench).kind == "bench"
        junk = tmp_path / "junk.json"
        junk.write_text(json.dumps({"hello": 1}))
        with pytest.raises(ValueError):
            record_from_file(junk)


class TestHistoryStore:
    def test_append_load_round_trip(self, tmp_path):
        for rec in _flat_history(3):
            append_record(tmp_path, rec)
        history = load_history(tmp_path)
        assert list(history) == ["run"]
        loaded = history["run"]
        assert [r.run_id for r in loaded] == ["r000", "r001", "r002"]
        assert loaded[0].series == {"experiment.fig4": 100.0}
        assert loaded[0].git_sha == "deadbeef"

    def test_history_file_sanitises_label(self, tmp_path):
        path = history_file(tmp_path, "run: with/odd chars")
        assert path.name == "run-with-odd-chars.jsonl"

    def test_torn_final_line_is_tolerated(self, tmp_path):
        path = append_record(tmp_path, _record(0, 100.0))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"run_id": "r001", "label": "ru')  # killed mid-append
        records = load_label_history(path)
        assert [r.run_id for r in records] == ["r000"]

    def test_line_with_env_stamp_still_loads(self, tmp_path):
        """History lines written with the retired ``env`` stamp load."""
        line = {
            "schema": 1, "run_id": "b000", "label": "bench 2x Test CPU",
            "kind": "bench", "config": "small", "git_sha": "deadbeef",
            "total_wall_ms": 150.0, "series": {"bench.test_x": 150.0},
            "env": {"bench_workers": 4, "cpu_count": 2, "mode": "serial",
                    "workers": 1},
        }
        path = tmp_path / "bench-2x-Test-CPU.jsonl"
        path.write_text(json.dumps(line) + "\n", encoding="utf-8")
        [record] = load_label_history(path)
        assert record.run_id == "b000"
        assert record.series == {"bench.test_x": 150.0}
        assert "env" not in record.to_dict()

    def test_malformed_middle_line_raises(self, tmp_path):
        path = append_record(tmp_path, _record(0, 100.0))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("not json\n")
        append_record(tmp_path, _record(1, 100.0))
        with pytest.raises(json.JSONDecodeError):
            load_label_history(path)


class TestIdempotentIngest:
    """Re-ingesting the same run id must not double-count it."""

    def test_duplicate_run_id_is_skipped(self, tmp_path):
        assert append_record(tmp_path, _record(0, 100.0)) is not None
        assert append_record(tmp_path, _record(0, 150.0)) is None
        records = load_history(tmp_path)["run"]
        assert [r.run_id for r in records] == ["r000"]
        # The first write wins: the duplicate's payload is discarded.
        assert records[0].series == {"experiment.fig4": 100.0}

    def test_dedupe_is_per_label(self, tmp_path):
        append_record(tmp_path, _record(0, 100.0))
        # Same run id under a different label lands in a different
        # history file, so it appends.
        assert append_record(tmp_path, _record(0, 100.0, label="other")) \
            is not None

    def test_dedupe_false_appends_anyway(self, tmp_path):
        append_record(tmp_path, _record(0, 100.0))
        assert append_record(tmp_path, _record(0, 100.0), dedupe=False) \
            is not None
        assert len(load_history(tmp_path)["run"]) == 2

    def test_dedupe_tolerates_torn_tail(self, tmp_path):
        path = append_record(tmp_path, _record(0, 100.0))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"run_id": "r001", "label": "ru')  # killed mid-append
        # The torn line is ignored while scanning for existing ids, so a
        # fresh run still appends and the duplicate is still caught.
        assert append_record(tmp_path, _record(1, 100.0)) is not None
        assert append_record(tmp_path, _record(0, 100.0)) is None

    def test_ingest_files_reports_appended_flag(self, tmp_path):
        from repro.obs.trend import ingest_files

        bench = tmp_path / "BENCH_obs.json"
        bench.write_text(json.dumps({
            "run_id": "bench-run-1",
            "label": "bench",
            "total_wall_ms": 12.0,
            "benchmarks": {"test_x": 12.0},
        }))
        history = tmp_path / "hist"
        first = ingest_files(history, [bench])
        second = ingest_files(history, [bench])
        assert [appended for _, appended in first] == [True]
        assert [appended for _, appended in second] == [False]
        assert len(load_history(history)["bench"]) == 1

    def test_cli_reingest_prints_skipped(self, tmp_path, capsys):
        bench = tmp_path / "BENCH_obs.json"
        bench.write_text(json.dumps({
            "run_id": "bench-run-1",
            "label": "bench",
            "total_wall_ms": 12.0,
            "benchmarks": {"test_x": 12.0},
        }))
        history = tmp_path / "hist"
        assert cli.main(["obs", "ingest", str(bench),
                         "--history", str(history)]) == 0
        assert "ingested" in capsys.readouterr().out
        assert cli.main(["obs", "ingest", str(bench),
                         "--history", str(history)]) == 0
        assert "skipped" in capsys.readouterr().out
        assert len(load_history(history)["bench"]) == 1


class TestDetectRegressions:
    def test_flat_history_is_quiet(self):
        assert detect_regressions(_flat_history()) == []
        # A steady pair where parallel loses (0.48x) is flat too.
        losing = [_bench(i, 4900.0, 10300.0) for i in range(5)]
        assert "bench.test_bench_pair.parallel_pct" in losing[-1].series
        assert detect_regressions(losing) == []

    def test_two_x_jump_flags(self):
        records = _flat_history() + [_record(99, 200.0)]
        regs = detect_regressions(records)
        assert len(regs) == 1
        assert regs[0].metric == "experiment.fig4"
        assert regs[0].value_ms == 200.0
        assert regs[0].baseline_ms == pytest.approx(100.0)
        assert regs[0].delta_pct == pytest.approx(100.0)

    def test_small_relative_drift_is_not_flagged(self):
        # +10% on a flat history stays under the 25% relative floor.
        records = _flat_history() + [_record(99, 110.0)]
        assert detect_regressions(records) == []

    def test_noisy_history_raises_the_threshold(self):
        # Alternating 100/160 has a large MAD; 170 is within the noise
        # envelope even though it clears the +25% relative floor.
        walls = [100.0, 160.0, 100.0, 160.0, 100.0, 160.0, 100.0, 160.0]
        records = [_record(i, w) for i, w in enumerate(walls)]
        assert detect_regressions(records + [_record(99, 170.0)]) == []

    def test_sub_noise_floor_metrics_never_flag(self):
        records = [_record(i, 5.0) for i in range(8)] + [_record(99, 20.0)]
        assert detect_regressions(records) == []

    def test_needs_min_history(self):
        records = [_record(0, 100.0), _record(1, 100.0), _record(99, 300.0)]
        assert detect_regressions(records) == []
        # Two prior points of a pair, then its speedup collapses from
        # 0.48x to 0.16x: still too young to judge.
        pairs = [_bench(0, 4900.0, 10300.0), _bench(1, 4900.0, 10300.0),
                 _bench(99, 4900.0, 30000.0)]
        assert detect_regressions(pairs) == []
        # One more prior point arms the gate on the wall and the ratio.
        pairs.insert(2, _bench(2, 4900.0, 10300.0))
        assert {r.metric for r in detect_regressions(pairs)} == {
            "bench.test_bench_pair.parallel_pct",
            "bench.test_bench_pair_parallel",
        }

    def test_regression_fires_after_enough_history(self):
        # Four points at a 0.48x speedup, then 0.16x: the ratio flags,
        # judged as parallel wall over serial wall in percent.
        records = [_bench(i, 4900.0, 10300.0) for i in range(4)]
        records.append(_bench(99, 4900.0, 30000.0))
        [ratio] = [r for r in detect_regressions(records)
                   if r.metric.endswith(RATIO_SUFFIX)]
        assert ratio.value_ms == pytest.approx(100.0 * 30000.0 / 4900.0)
        assert ratio.baseline_ms == pytest.approx(100.0 * 10300.0 / 4900.0)
        assert ("bench.test_bench_pair.parallel_pct: 612.2 % vs median "
                "210.2 %") in ratio.render()

    def test_window_limits_the_baseline(self):
        # Old slow runs outside the window must not mask a regression
        # against the recent fast plateau.
        old = [_record(i, 300.0) for i in range(10)]
        recent = [_record(10 + i, 100.0) for i in range(8)]
        records = old + recent + [_record(99, 200.0)]
        assert detect_regressions(records, window=8)
        assert not detect_regressions(records, window=30)


class TestRendering:
    def test_render_marks_regressions(self, tmp_path):
        for rec in _flat_history() + [_record(99, 200.0)]:
            append_record(tmp_path, rec)
        text, regs = check_history(tmp_path)
        assert len(regs) == 1
        assert "<< REGRESSION" in text
        assert "experiment.fig4" in text
        assert "+100.0%" in text

    def test_render_flat_history_reports_ok(self, tmp_path):
        for rec in _flat_history():
            append_record(tmp_path, rec)
        text, regs = check_history(tmp_path)
        assert regs == []
        assert "ok: latest runs are within their historical envelope" in text

    def test_render_empty_history_hints_at_ingest(self):
        assert "repro obs ingest" in render_trend({})

    def test_top_limits_series_rows(self, tmp_path):
        extras = {f"experiment.e{i}": 100.0 + i for i in range(6)}
        for i in range(4):
            append_record(tmp_path, _record(i, 100.0, **extras))
        text, _ = check_history(tmp_path, top=2)
        shown = [ln for ln in text.splitlines() if "experiment.e" in ln]
        assert len(shown) == 2

    def test_ratio_series_render_beyond_top(self, tmp_path):
        """A speedup row renders even when 12 larger walls fill the top."""
        for i in range(2):
            artifact = _bench_artifact(i, 8000.0, 2000.0)
            artifact["benchmarks"].update(
                {f"test_wall_{k:02d}": 1000.0 + k for k in range(13)}
            )
            append_record(tmp_path, record_from_bench(artifact))
        text, _ = check_history(tmp_path)
        rows = [ln.split()[0] for ln in text.splitlines()
                if ln.startswith("  bench.")]
        assert "bench.test_bench_pair.parallel_pct" in rows
        # The walls past the top 12 stay hidden.
        assert len(rows) == 13
        assert "bench.test_wall_00" not in rows


class TestCliGate:
    def test_gate_exits_nonzero_on_synthetic_regression(self, tmp_path, capsys):
        for rec in _flat_history() + [_record(99, 200.0)]:
            append_record(tmp_path, rec)
        assert cli.main(["obs", "trend", "--history", str(tmp_path),
                         "--gate"]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_gate_exits_zero_on_flat_history(self, tmp_path, capsys):
        for rec in _flat_history():
            append_record(tmp_path, rec)
        for i in range(5):
            append_record(tmp_path, _bench(i, 10000.0, 5000.0))
        assert cli.main(["obs", "trend", "--history", str(tmp_path),
                         "--gate"]) == 0

    def test_gate_exits_nonzero_on_shrinking_speedup(self, tmp_path, capsys):
        """2.00x -> 1.40x fails the gate though neither wall rises."""
        history = tmp_path / "hist"
        artifacts = []
        for i, (serial, parallel) in enumerate(_SHRINKING_SPEEDUP):
            path = tmp_path / f"BENCH_obs_{i}.json"
            path.write_text(json.dumps(_bench_artifact(i, serial, parallel)))
            artifacts.append(str(path))
        # Two prior points: the gate is not armed yet.
        assert cli.main(["obs", "ingest", *artifacts[:2], artifacts[-1],
                         "--history", str(tmp_path / "young")]) == 0
        assert cli.main(["obs", "trend", "--history", str(tmp_path / "young"),
                         "--gate"]) == 0
        assert cli.main(["obs", "ingest", *artifacts,
                         "--history", str(history)]) == 0
        capsys.readouterr()
        assert cli.main(["obs", "trend", "--history", str(history),
                         "--gate"]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION: 1 metric(s)" in out
        assert ("bench.test_bench_pair.parallel_pct: 71.4 % vs median "
                "49.8 %") in out

    def test_without_gate_regressions_only_report(self, tmp_path):
        for rec in _flat_history() + [_record(99, 200.0)]:
            append_record(tmp_path, rec)
        assert cli.main(["obs", "trend", "--history", str(tmp_path)]) == 0

    def test_cli_ingest_appends_history(self, tmp_path, capsys):
        bench = tmp_path / "BENCH_obs.json"
        bench.write_text(json.dumps({
            "label": "bench",
            "total_wall_ms": 12.0,
            "benchmarks": {"test_x": 12.0},
        }))
        history = tmp_path / "hist"
        assert cli.main(["obs", "ingest", str(bench),
                         "--history", str(history)]) == 0
        records = load_history(history)["bench"]
        assert records[0].series == {"bench.test_x": 12.0}
        assert "bench" in capsys.readouterr().out

    def test_cli_ingest_rejects_junk(self, tmp_path, capsys):
        junk = tmp_path / "junk.json"
        junk.write_text("[1, 2]")
        assert cli.main(["obs", "ingest", str(junk),
                         "--history", str(tmp_path / "h")]) == 2
