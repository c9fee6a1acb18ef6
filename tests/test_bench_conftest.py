"""Tests for the benchmark artifact writer (benchmarks/conftest.py).

``benchmarks/`` is not a package (pytest puts the directory on
``sys.path`` for its conftest), so the module under test is loaded by
file path.  The properties under test: each test records
pytest-benchmark's per-round median rather than the wall around the
whole test, and a session writes only what it measured, under a label
that names the host and a ``config`` stamp that names the tier it ran.
"""

from __future__ import annotations

import importlib.util
import json
import os
from pathlib import Path
from types import SimpleNamespace

_CONFTEST = (
    Path(__file__).resolve().parent.parent / "benchmarks" / "conftest.py"
)


def _load_bench_conftest():
    spec = importlib.util.spec_from_file_location(
        "bench_conftest_under_test", _CONFTEST
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _benchmark_stub(median_s: float | None) -> SimpleNamespace:
    """The part of pytest-benchmark's fixture the writer reads.

    ``median_s=None`` is a fixture whose benchmarking was switched off
    (``--benchmark-disable``): it never fills ``stats``.
    """
    if median_s is None:
        return SimpleNamespace(stats=None)
    return SimpleNamespace(
        stats=SimpleNamespace(stats=SimpleNamespace(median=median_s))
    )


class TestBenchArtifact:
    def test_records_benchmark_median_not_wall(self):
        mod = _load_bench_conftest()
        assert mod.per_round_ms(_benchmark_stub(0.25), 9000.0) == 250.0
        # No benchmark fixture, or one that never ran: the test's wall.
        assert mod.per_round_ms(None, 9000.0) == 9000.0
        assert mod.per_round_ms(_benchmark_stub(None), 9000.0) == 9000.0

    def test_partial_run_replaces_stale_artifact(self, tmp_path, monkeypatch):
        mod = _load_bench_conftest()
        out = tmp_path / "BENCH_obs.json"
        out.write_text(json.dumps({
            "schema": 1,
            "run_id": "r-old",
            "label": "bench",
            "benchmarks": {"test_gone": 10.0, "test_a": 11.0},
            "experiments": {"fig4": {"wall_ms": 20.0, "cpu_ms": 18.0}},
        }), encoding="utf-8")
        monkeypatch.setenv("REPRO_BENCH_OBS", str(out))
        collector = {
            "benchmarks": {"test_a": 12.0},
            "tiers": {"small"},
            "experiments": {},
            "counters": {},
            "total_wall_ms": 40.0,
        }
        session = SimpleNamespace(
            config=SimpleNamespace(_bench_obs=collector)
        )
        mod.pytest_sessionfinish(session, 0)
        artifact = json.loads(out.read_text(encoding="utf-8"))
        assert artifact["run_id"] != "r-old"
        assert artifact["benchmarks"] == {"test_a": 12.0}
        assert artifact["experiments"] == {}
        assert artifact["total_wall_ms"] == 40.0
        # The label names the host: CPU count, then model.
        assert artifact["label"] == mod.host_label()
        assert artifact["label"].startswith(f"bench {os.cpu_count()}x ")
        assert len(artifact["label"]) > len(f"bench {os.cpu_count()}x ")

    def test_config_stamps_the_tier_the_session_ran(
        self, tmp_path, monkeypatch
    ):
        mod = _load_bench_conftest()
        out = tmp_path / "BENCH_obs.json"
        monkeypatch.setenv("REPRO_BENCH_OBS", str(out))
        for tiers, expected in (({"large"}, "large"),
                                ({"small"}, "small"),
                                ({"small", "large"}, "small")):
            collector = {
                "benchmarks": {"test_bench_compute_many_large_serial": 5.0},
                "tiers": tiers,
                "experiments": {},
                "counters": {},
                "total_wall_ms": 5.0,
            }
            session = SimpleNamespace(
                config=SimpleNamespace(_bench_obs=collector)
            )
            mod.pytest_sessionfinish(session, 0)
            artifact = json.loads(out.read_text(encoding="utf-8"))
            assert artifact["config"] == expected, tiers
