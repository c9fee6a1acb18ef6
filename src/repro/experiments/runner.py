"""Run experiments against one world and print their renders.

:func:`run_all` is where ``repro run`` and ``repro report`` execute
experiments; the claim scorecard and the health gauges read its
results, so no experiment runs twice in one command.
``python -m repro.experiments.runner ARGS`` is the legacy spelling of
``repro run ARGS``.
"""

from __future__ import annotations

import sys
from typing import Any, Sequence, TextIO

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
from repro.experiments.base import run_instrumented
from repro.experiments.world import World

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


def run_all(
    world: World,
    stream: TextIO | None = None,
    *,
    selected: Sequence[tuple[Any, str]] | None = None,
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
    always assert on ``recording.root`` and every timing line reads the
    experiment's span.
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
            for module, description in selected:
                result, record = run_instrumented(module, description, world)
                wall_ms = record.wall_ms if record is not None else 0.0
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
