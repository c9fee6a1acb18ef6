"""Run experiments against one world and print their renders.

:func:`run_all` is where ``repro run`` and ``repro report`` execute
experiments; the claim scorecard and the health gauges read its
results, so no experiment runs twice in one command.
``python -m repro.experiments.runner ARGS`` is the legacy spelling of
``repro run ARGS``.
"""

from __future__ import annotations

import sys
from typing import Any, Iterable, Sequence, TextIO

from repro import obs
from repro.experiments import (
    baselines,
    fig1,
    fig2,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    igreedy_compare,
    load_balance,
    longitudinal,
    methodology,
    probe_sweep,
    resilience,
    sec52_tails,
    sec54,
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
)
from repro.experiments.base import experiment_name, run_instrumented
from repro.experiments.world import World
from repro.explain import provenance
from repro.par.obsbuf import (
    WorkerPayload,
    finish_capture,
    merge_payload,
    start_capture,
)
from repro.par.pool import (
    capture_blocks_parallel,
    map_deterministic,
    pool_context,
    worker_count,
)

#: (module, description) in paper order.
ALL_EXPERIMENTS = (
    (fig1, "Fig. 1 catchment-inefficiency micro-case"),
    (table5, "Table 5 / §4.1-4.2 CDN survey"),
    (fig2, "Fig. 2 client and site partitions"),
    (fig3, "Fig. 3 p-hop geolocation techniques"),
    (table1, "Table 1 sites per area"),
    (table2, "Table 2 DNS mapping efficiency"),
    (fig4, "Fig. 4 latency / distance CDFs"),
    (table3, "Table 3 tail latency IM-6 vs IM-NS"),
    (fig5, "Fig. 5 regional-global deltas"),
    (table4, "Table 4 dRTT x site-relation"),
    (fig8, "Fig. 8 same-site validation"),
    (sec54, "§5.4 case attribution"),
    (sec52_tails, "§5.2 100+ms tail categorisation"),
    (fig6, "Fig. 6 ReOpt on Tangled"),
    (fig7, "Fig. 7 peering-type micro-case"),
    (table6, "Table 6 hostname generalisation"),
    (igreedy_compare, "§7 iGreedy vs p-hop enumeration"),
    (resilience, "§4.5 robustness: site-withdrawal failover"),
    (longitudinal, "§4.4 longitudinal partition stability"),
    (load_balance, "load distribution: global vs regional catchments"),
    (methodology, "§3.1 estimator methodology comparison"),
    (probe_sweep, "vantage-point sufficiency for site enumeration"),
    (baselines, "§2.2 baselines comparison (DailyCatch / AnyOpt / ReOpt)"),
)

#: Short name -> (module, description); the addressing scheme experiment
#: workers use (modules themselves never cross the process boundary).
EXPERIMENTS_BY_NAME = {
    experiment_name(module): (module, description)
    for module, description in ALL_EXPERIMENTS
}

_WORKER_WORLD: World | None = None

#: Parent-side staging slot for ``fork`` pools: children inherit the
#: world copy-on-write instead of unpickling it (see repro.par.routing).
_FORK_WORLD: World | None = None


def _init_experiment_worker(world: World | None) -> None:
    """Receive the world; runs once per experiment-worker process."""
    global _WORKER_WORLD
    obs.install(None)
    provenance.install(None)
    if world is None:
        world = _FORK_WORLD
    if world is None:
        raise RuntimeError("experiment worker started without a world")
    # An experiment worker must never fork its own nested fleet pool,
    # and a pool inherited across fork would be unusable anyway.
    world._fleet_pool = None
    world._fleet_checked = True
    _WORKER_WORLD = world


def _timed_run(
    module: Any, description: str, world: World
) -> tuple[object, float]:
    """Run one experiment under its span; ``(result, wall_ms)``."""
    result, span_record = run_instrumented(module, description, world)
    return result, span_record.wall_ms if span_record is not None else 0.0


def _experiment_task(
    task: tuple[str, int],
) -> tuple[object, float, WorkerPayload | None]:
    """Worker-side: run one experiment, capturing its spans/counters."""
    name, chunk_index = task
    module, description = EXPERIMENTS_BY_NAME[name]
    world = _WORKER_WORLD
    if world is None:
        raise RuntimeError("experiment worker used before initialization")
    recorder = start_capture(chunk_index=chunk_index)
    try:
        result, wall_ms = _timed_run(module, description, world)
    finally:
        payload = finish_capture(recorder)
    return result, wall_ms, payload


def run_selected_parallel(
    world: World,
    selected: Sequence[tuple[Any, str]],
    workers: int | None = None,
) -> list[tuple[object, float]]:
    """Run experiments across worker processes; results in input order.

    :func:`run_all` calls this once it has chosen the parallel path.
    Each worker gets its own copy of the world, so per-world state is
    not shared between experiments the way it is serially.  ``fig6``,
    ``resilience`` and ``baselines`` allocate fresh service prefixes
    from the world's pool, so their renders depend on which experiments
    ran before them in the same process and can differ from a serial
    run's (ROADMAP item 6).

    Returns ``(result, wall_ms)`` pairs; worker span/counter buffers are
    merged into the live recorder in experiment order.
    """
    global _FORK_WORLD
    with obs.span("par.stage", items=len(selected)):
        tasks = [
            (experiment_name(module), index)
            for index, (module, _) in enumerate(selected)
        ]
        forked = pool_context().get_start_method() == "fork"
        initargs: tuple[World | None] = (None,) if forked else (world,)
        if forked:
            _FORK_WORLD = world
    try:
        outcomes = map_deterministic(
            _experiment_task,
            tasks,
            workers=workers,
            chunk_size=1,
            initializer=_init_experiment_worker,
            initargs=initargs,
        )
    finally:
        _FORK_WORLD = None
    merged: list[tuple[object, float]] = []
    with obs.span("par.merge", payloads=len(outcomes)):
        for result, wall_ms, payload in outcomes:
            merge_payload(payload)
            merged.append((result, wall_ms))
    return merged


def run_all(
    world: World,
    stream: TextIO | None = None,
    *,
    selected: Sequence[tuple[Any, str]] | None = None,
    parallel: bool = False,
    workers: int | None = None,
    plots: bool = False,
) -> tuple[list[object], obs.Recorder]:
    """Run experiments against one world, each exactly once.

    ``selected`` holds ``(module, description)`` pairs (default: every
    experiment, in paper order).  Each render, its ASCII plot with
    ``plots``, and a ``[description: N.NNs]`` timing line go to
    ``stream`` (default stdout).

    Returns ``(results, recording)``: the results in ``selected`` order
    and the recorder whose span tree timed every experiment.  When a
    recorder is already installed (``repro run --trace``) it is reused;
    otherwise a private one is created for the duration, so callers can
    always assert on ``recording.root`` and workers always time their
    experiments.

    With ``parallel=True`` and an effective worker count above 1, the
    experiments run across worker processes (results stay in order);
    provenance capture and the profilers force the serial path, as
    their captures are process-local.
    """
    if selected is None:
        selected = ALL_EXPERIMENTS
    out = stream or sys.stdout
    recorder = obs.active()
    owned = recorder is None
    if owned:
        recorder = obs.Recorder("experiments")
        obs.install(recorder)
    results: list[object] = []
    try:
        with obs.span("experiments.run_all", experiments=len(selected)):
            outcomes: Iterable[tuple[object, float]]
            if (parallel and len(selected) > 1
                    and worker_count(workers) > 1
                    and not capture_blocks_parallel()):
                outcomes = run_selected_parallel(world, selected,
                                                 workers=workers)
            else:
                # Lazy, so each render prints as soon as it is ready.
                outcomes = (
                    _timed_run(module, description, world)
                    for module, description in selected
                )
            for (_, description), (result, wall_ms) in zip(selected,
                                                           outcomes):
                results.append(result)
                print(result.render(), file=out)
                if plots and hasattr(result, "render_plot"):
                    print(result.render_plot(), file=out)
                print(f"[{description}: {wall_ms / 1000.0:.2f}s]\n",
                      file=out)
    finally:
        if owned:
            obs.uninstall()
    assert recorder is not None
    return results, recorder


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.experiments.runner ARGS``: runs ``repro run ARGS``."""
    from repro.cli import main as cli_main  # cli imports this module

    return cli_main(["run", *(sys.argv[1:] if argv is None else argv)])


if __name__ == "__main__":
    raise SystemExit(main())
