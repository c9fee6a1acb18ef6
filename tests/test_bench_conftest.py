"""Tests for the benchmark artifact writer (benchmarks/conftest.py).

``benchmarks/`` is not a package (pytest puts the directory on
``sys.path`` for its conftest), so the module under test is loaded by
file path.  The property under test: a partial bench run merges into an
existing ``BENCH_obs.json`` by key instead of shrinking it.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

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


def _artifact(**overrides) -> dict:
    base = {
        "schema": 1,
        "run_id": "r-old",
        "label": "bench",
        "config": "SMALL",
        "git_sha": "aaa",
        "cpu_count": 8,
        "workers": 1,
        "mode": "serial",
        "bench_workers": 4,
        "total_wall_ms": 30.0,
        "experiments": {"fig4": {"wall_ms": 20.0, "cpu_ms": 18.0}},
        "benchmarks": {"test_a": 10.0, "test_b": 20.0},
        "counters": {"routing.routes_pushed": 5},
    }
    base.update(overrides)
    return base


class TestMergeBenchArtifacts:
    def test_partial_run_keeps_untouched_keys(self):
        mod = _load_bench_conftest()
        existing = _artifact()
        fresh = _artifact(
            run_id="r-new",
            git_sha="bbb",
            benchmarks={"test_a": 12.0},
            experiments={},
            counters={},
            total_wall_ms=12.0,
        )
        merged = mod.merge_bench_artifacts(existing, fresh)
        # Fresh metadata wins; untouched keys survive from the old run.
        assert merged["run_id"] == "r-new"
        assert merged["git_sha"] == "bbb"
        assert merged["benchmarks"] == {"test_a": 12.0, "test_b": 20.0}
        assert merged["experiments"] == {"fig4": {"wall_ms": 20.0,
                                                  "cpu_ms": 18.0}}
        assert merged["counters"] == {"routing.routes_pushed": 5}
        assert merged["total_wall_ms"] == 32.0  # recomputed over the merge

    def test_schema_mismatch_replaces_wholesale(self):
        mod = _load_bench_conftest()
        existing = _artifact(schema=0)
        fresh = _artifact(run_id="r-new", benchmarks={"test_a": 12.0})
        assert mod.merge_bench_artifacts(existing, fresh) is fresh

    def test_config_mismatch_merges_by_key(self):
        """Different config stamps no longer refuse the merge.

        The speedup analyzer derives each series' tier from the test
        name, so artifacts from different world configs can share one
        file; the merge must union the sections instead of dropping
        either side's series.
        """
        mod = _load_bench_conftest()
        existing = _artifact(config="large",
                             benchmarks={"test_large_pair": 5000.0})
        fresh = _artifact(run_id="r-new")
        merged = mod.merge_bench_artifacts(existing, fresh)
        assert merged["run_id"] == "r-new"
        assert merged["benchmarks"] == {
            "test_large_pair": 5000.0, "test_a": 10.0, "test_b": 20.0,
        }
        assert merged["total_wall_ms"] == 5030.0

    def test_config_stamp_follows_fuller_artifact(self):
        """The artifact-level config comes from the run with more keys.

        A single-module LARGE run (1 benchmark key) merging into a
        full SMALL-suite artifact (2 keys) keeps the SMALL stamp; a
        fuller fresh run takes the stamp over.
        """
        mod = _load_bench_conftest()
        existing = _artifact()
        partial = _artifact(
            run_id="r-new", config="large",
            benchmarks={"test_large_pair": 5000.0},
            experiments={}, counters={},
        )
        merged = mod.merge_bench_artifacts(existing, partial)
        assert merged["config"] == "SMALL"
        assert merged["benchmarks"] == {
            "test_a": 10.0, "test_b": 20.0, "test_large_pair": 5000.0,
        }
        fuller = _artifact(
            run_id="r-next", config="large",
            benchmarks={"test_large_pair": 5000.0, "test_c": 1.0,
                        "test_d": 2.0},
        )
        merged = mod.merge_bench_artifacts(existing, fuller)
        assert merged["config"] == "large"

    def test_full_rerun_overwrites_every_key(self):
        mod = _load_bench_conftest()
        existing = _artifact()
        fresh = _artifact(
            run_id="r-new",
            benchmarks={"test_a": 11.0, "test_b": 21.0},
            total_wall_ms=32.0,
        )
        merged = mod.merge_bench_artifacts(existing, fresh)
        assert merged["benchmarks"] == {"test_a": 11.0, "test_b": 21.0}
        assert merged["total_wall_ms"] == 32.0
