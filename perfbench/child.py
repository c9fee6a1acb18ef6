"""One benchmark sample in a fresh process: set up, run the body, check.

    python3 perfbench/child.py --workload NAME --seed N --tmp DIR
                               [--setup-only | --traced]

Prints one JSON object.  ``run.py`` starts one such process per sample,
so no module-level memo (flat adjacency, km cache, worlds) carries over
from one sample to the next.  ``--traced`` wraps every layer of
``layers.LAYERS`` and adds the per-layer ledger to the output.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
from pathlib import Path
from typing import Any

import layers
import workloads


def _span_count(recorder: Any) -> int:
    if recorder is None:
        return 0
    return sum(1 for _ in recorder.root.walk()) - 1


def _events_bytes(tmp: Path) -> int:
    return sum(p.stat().st_size for p in tmp.glob("trace/events-*.jsonl"))


def _engines(state: Any, outcome: workloads.Outcome) -> list[Any]:
    if outcome.batch is not None:
        return list(outcome.batch.engines)
    return [state.engine.routing]


def _hit_ratio(engines: list[Any]) -> float:
    hits = misses = 0
    for engine in engines:
        h, m = engine.cache_stats()
        hits += h
        misses += m
    return hits / (hits + misses) if hits + misses else 0.0


def measure(workload: workloads.Workload, seed: int, tmp: Path, *,
            setup_only: bool = False, traced: bool = False
            ) -> dict[str, Any]:
    """One sample of ``workload``; see the module docstring."""
    cfg = workload.config(seed)
    ops = workloads.Ops()
    tracer = layers.Tracer() if traced else None
    installed = layers.install(tracer, layers.LAYERS) if tracer else None
    outcome = workloads.Outcome()
    try:
        if tracer is not None:
            tracer.start()
        start = time.perf_counter()
        with workload.session(tmp, cfg) as recorder:
            state = workload.setup(cfg)
            ready = time.perf_counter()
            ready_cpu = time.process_time()
            setup_stats = tracer.snapshot() if tracer is not None else {}
            if not setup_only:
                outcome = workload.body(state, ops, tmp)
        end = time.perf_counter()
        end_cpu = time.process_time()
        if tracer is not None:
            tracer.stop()
    finally:
        if installed is not None:
            installed.restore()
    result: dict[str, Any] = {"setup_s": ready - start}
    if not setup_only:
        result.update(_body_result(workload, seed, tmp, state, outcome,
                                   recorder, ops, tracer, setup_stats,
                                   end - ready, end_cpu - ready_cpu))
    result.update(attempted=ops.attempted, failures=ops.failures)
    return result


def _body_result(workload: workloads.Workload, seed: int, tmp: Path,
                 state: Any, outcome: workloads.Outcome, recorder: Any,
                 ops: workloads.Ops, tracer: layers.Tracer | None,
                 setup_stats: dict[str, layers.LayerStats],
                 run_s: float, run_cpu_s: float) -> dict[str, Any]:
    """Timings, ledger and checks of a sample that ran the body."""
    result: dict[str, Any] = {
        "run_s": run_s,
        "run_cpu_s": run_cpu_s,
        "peak_rss_mib":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    outcome.recorder = recorder
    batch = outcome.batch
    if tracer is not None:
        ops.check("wrappers restored", lambda: (
            not layers.unpatched(layers.LAYERS), "still wrapped"))
        error = layers.reconcile_error(tracer.stats, tracer.wall_s)
        ops.check("ledger reconciles to wall time", lambda: (
            error <= 0.01, f"off by {100 * error:.2f}%"))
        ledger = layers.ledger(tracer.stats, setup_stats, tracer.wall_s)
        ledger.update({
            "routing.cache.hit_ratio": _hit_ratio(_engines(state, outcome)),
            "par.cache.bytes": batch.cache.disk_stats()[1] if batch else 0,
            "cold_routing_s": batch.cold_s if batch else 0.0,
            "warm_routing_s": batch.warm_s if batch else 0.0,
            "obs.spans": _span_count(recorder),
            "obs.events.bytes": _events_bytes(tmp),
        })
        result["wall_s"] = tracer.wall_s
        result["layers"] = ledger
    workload.check(state, outcome, ops,
                   pinned=seed == workloads.DEFAULT_SEED)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()
    result = measure(workloads.WORKLOADS[args.workload], args.seed, args.tmp,
                     setup_only=args.setup_only, traced=args.traced)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
