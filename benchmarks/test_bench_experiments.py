"""Per-experiment wall-time series for the performance trajectory.

Runs the full experiment suite on the shared small world under an obs
recorder and contributes one wall/CPU entry per experiment (plus the
run's counter totals) to the session's ``BENCH_obs.json`` — see
``benchmarks/conftest.py`` for the artifact writer.  This test has no
``benchmark`` fixture, so the writer records its wall.  CI ingests the
file into the trend history, whose gate (``repro obs trend --gate``)
judges each ``experiment.<name>`` series; ``repro obs compare`` lines
two full manifests up span by span when a series moves.
"""

from __future__ import annotations

import io

from repro import obs
from repro.experiments import runner


def test_bench_emit_obs_artifact(world, bench_obs):
    results, recording = runner.run_all(world, stream=io.StringIO())
    assert len(results) == len(runner.ALL_EXPERIMENTS)

    experiments: dict[str, dict[str, float]] = {}
    for module, _description in runner.ALL_EXPERIMENTS:
        name = module.__name__.rsplit(".", 1)[-1]
        record = recording.root.find(f"experiment.{name}")
        assert record is not None, f"no span recorded for {name}"
        experiments[name] = {
            "wall_ms": round(record.wall_ms, 3),
            "cpu_ms": round(record.cpu_ms, 3),
        }

    bench_obs["experiments"].update(experiments)
    bench_obs["counters"].update(recording.root.subtree_counters())

    assert sum(e["wall_ms"] for e in experiments.values()) > 0.0
    assert obs.active() is None  # run_all cleaned up its private recorder
