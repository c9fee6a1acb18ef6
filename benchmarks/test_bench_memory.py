"""Memory benchmarks: routing-state census + capture-off overhead guard.

The census benchmark times the deep-sizeof walk over a built SMALL
world and records the headline sizes (routing-state KiB, bytes per
route / per AS, topology KiB) into the merged artifact's ``memory``
section, where ``repro obs ingest`` turns them into ``mem.*`` series
for the trend gate.

The overhead guard is disabled by default — wall-clock ratio asserts
are flaky on shared runners.  Enable it locally with::

    REPRO_BENCH_OVERHEAD=1 pytest benchmarks/test_bench_memory.py -k overhead

It checks the contract that matters for always-on observability: a
recorder with memory capture *off* (the default) must add under 1% to
the SMALL world build versus a fully untraced build.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.experiments.config import SMALL
from repro.experiments.world import World
from repro.obs.memory import world_census


def _mark(benchmark) -> None:
    benchmark.extra_info["cpu_count"] = os.cpu_count()


def test_bench_memory_census(benchmark, world, bench_obs):
    """Deep-sizeof census of the built world's routing state."""
    rows = benchmark.pedantic(
        lambda: world_census(world), rounds=3, iterations=1, warmup_rounds=0
    )
    _mark(benchmark)
    by_name = {row.name: row for row in rows}
    agg = by_name["routing_tables[all]"]
    topology = by_name["topology"]
    memory = bench_obs["memory"]
    memory["routing_state_kib"] = round(agg.bytes / 1024.0, 3)
    memory["bytes_per_route"] = round(agg.units["bytes_per_route"], 3)
    memory["bytes_per_as"] = round(agg.units["bytes_per_as"], 3)
    memory["topology_kib"] = round(topology.bytes / 1024.0, 3)
    benchmark.extra_info["routes"] = agg.units["routes"]
    benchmark.extra_info["tables"] = agg.units["tables"]


@pytest.mark.skipif(
    os.environ.get("REPRO_BENCH_OVERHEAD") != "1",
    reason="wall-clock guard; set REPRO_BENCH_OVERHEAD=1 to enable",
)
def test_bench_memory_capture_off_overhead(monkeypatch):
    """Memory capture *off* adds <1% wall to the traced world build.

    The memory profiler's always-on footprint is two ``is not None``
    checks per span boundary in :class:`~repro.obs.recorder.Recorder`.
    Measuring that through two whole world builds is hopeless — on a
    shared runner, wall *and* CPU time of code-identical arms swing
    several percent, swamping a 1% budget.  So the guard composes two
    stable measurements instead:

    1. the per-span-boundary cost, amplified over ``SPAN_ROUNDS``
       no-op spans under a stock recorder (memory off) versus a
       recorder whose ``_push``/``_pop`` are patched back to
       hook-free versions (best of 3 interleaved arms each); and
    2. one traced SMALL world build, for the span count and the wall
       time the budget is a fraction of.

    The asserted overhead is (per-span hook delta) x (spans per
    build), compared against 1% of the build's wall time.  The
    recorder's own pre-existing cost (counters, span records, ~2% of
    a build) cancels out between the arms.
    """
    from repro import obs
    from repro.obs.recorder import Recorder, _plain, recording
    from repro.par.pool import WORKERS_ENV

    monkeypatch.setenv(WORKERS_ENV, "1")

    stock_push, stock_pop = Recorder._push, Recorder._pop

    # Recorder._push/_pop minus the `self.memory is not None` branch —
    # the baseline this PR's always-on hook is measured against.
    def hookfree_push(self, record):
        self._stack[-1].children.append(record)
        self._stack.append(record)
        if self.profiler is not None:
            self.profiler.span_push(record.name)
        if self._events is not None:
            self._events.emit({
                "ev": "start",
                "span": record.name,
                "t_ms": round(
                    (time.perf_counter() - self._wall_origin) * 1000.0, 3),
                "depth": len(self._stack) - 1,
                "attrs": {k: _plain(v) for k, v in record.attrs.items()},
            })

    def hookfree_pop(self, record):
        while len(self._stack) > 1:
            if self._stack.pop() is record:
                break
        if self.profiler is not None:
            self.profiler.span_pop()
        if self._events is not None:
            self._events.emit({
                "ev": "end",
                "span": record.name,
                "t_ms": round(
                    (time.perf_counter() - self._wall_origin) * 1000.0, 3),
                "wall_ms": round(record.wall_ms, 3),
                "status": record.status,
                "counters": dict(record.counters),
            })

    SPAN_ROUNDS = 50_000

    def span_cost(hookfree: bool) -> float:
        """Seconds per span enter/exit under a fresh recorder."""
        if hookfree:
            monkeypatch.setattr(Recorder, "_push", hookfree_push)
            monkeypatch.setattr(Recorder, "_pop", hookfree_pop)
        else:
            monkeypatch.setattr(Recorder, "_push", stock_push)
            monkeypatch.setattr(Recorder, "_pop", stock_pop)
        with recording("bench-overhead"):
            start = time.perf_counter()
            for _ in range(SPAN_ROUNDS):
                with obs.span("bench.span"):
                    pass
            elapsed = time.perf_counter() - start
        return elapsed / SPAN_ROUNDS

    # Spans per build + the build wall the 1% budget applies to.
    monkeypatch.setattr(Recorder, "_push", stock_push)
    monkeypatch.setattr(Recorder, "_pop", stock_pop)
    start = time.perf_counter()
    with recording("bench-overhead") as recorder:
        World(SMALL)
    build_wall = time.perf_counter() - start

    def count_spans(record) -> int:
        return 1 + sum(count_spans(child) for child in record.children)

    spans_per_build = count_spans(recorder.root)

    span_cost(hookfree=True)  # warm both code paths
    span_cost(hookfree=False)
    hooked = min(span_cost(hookfree=False) for _ in range(3))
    hookfree = min(span_cost(hookfree=True) for _ in range(3))

    hook_delta = max(0.0, hooked - hookfree)
    overhead = hook_delta * spans_per_build
    budget = 0.01 * build_wall
    assert overhead <= budget, (
        f"memory hooks (capture off) cost {overhead * 1000.0:.3f}ms over "
        f"{spans_per_build} spans — {overhead / build_wall * 100.0:.3f}% of "
        f"the {build_wall:.2f}s build (budget 1%; per-span hooked "
        f"{hooked * 1e9:.0f}ns vs hook-free {hookfree * 1e9:.0f}ns)"
    )
