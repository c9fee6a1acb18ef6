"""Benchmarks guarding the provenance hooks in the hot routing loop.

The capture hooks in ``repro.routing.engine`` sit inside the tightest
loops of the simulator, guarded by a single ``None`` check.  Two layers
protect them:

- ``test_bench_routing_provenance_disabled`` feeds the disabled-path
  compute time (its per-round median) into ``BENCH_obs.json``; the CI
  trend gate
  (``repro obs trend --gate``) compares it against the accumulated
  history, which is what catches a slow regression against the
  uninstrumented baseline across commits;
- ``test_disabled_path_not_slower_than_capture`` is the in-process
  tripwire: one sweep, timed without and with capture.  The captured
  run does strictly more work (it allocates a trail per routed node
  and a candidate per refused offer); if the guard pattern breaks and
  uncaptured runs start paying capture costs, the two converge from
  the wrong side and the margin assert fires.
"""

from __future__ import annotations

import time

from repro.explain import provenance
from repro.explain.provenance import capturing
from repro.routing.engine import RoutingEngine


def _global_announcement(world):
    return world.imperva.ns.announcement()


def test_bench_routing_provenance_disabled(benchmark, world):
    """Full-table BGP computation with capture off (the production path)."""
    provenance.uninstall()
    announcement = _global_announcement(world)

    def compute():
        return RoutingEngine(world.topology).compute(announcement)

    table = benchmark(compute)
    benchmark.extra_info["routed_nodes"] = len(table.best)
    # The disabled path must leave no provenance behind.
    with capturing() as rec:
        pass
    assert len(rec) == 0


def test_bench_routing_provenance_enabled(benchmark, world):
    """The same computation with a recorder installed (trails captured)."""
    announcement = _global_announcement(world)

    def compute():
        with capturing() as rec:
            RoutingEngine(world.topology).compute(announcement)
        return rec

    rec = benchmark(compute)
    benchmark.extra_info["selection_trails"] = len(rec.selection)
    assert len(rec.selection) > 0


def test_disabled_path_not_slower_than_capture(world):
    provenance.uninstall()
    announcement = _global_announcement(world)

    def timed(enable: bool) -> float:
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            if enable:
                with capturing():
                    RoutingEngine(world.topology).compute(announcement)
            else:
                RoutingEngine(world.topology).compute(announcement)
            best = min(best, time.perf_counter() - start)
        return best

    timed(False)  # warm caches before comparing
    disabled = timed(False)
    enabled = timed(True)
    # 1.25x absorbs scheduler noise; a real guard-pattern break makes the
    # disabled path pay allocation costs and blows well past it.
    assert disabled <= enabled * 1.25, (
        f"provenance-disabled compute ({disabled * 1e3:.1f} ms) slower than "
        f"capture-enabled compute ({enabled * 1e3:.1f} ms)"
    )
