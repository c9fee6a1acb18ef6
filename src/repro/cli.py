"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``world``  — build a world and print its structural summary;
- ``list``   — list the available experiments;
- ``run``    — run experiments (all by default), optionally exporting
  structured results to JSON;
- ``demo``   — run a micro-case (fig1 / fig7) standalone;
- ``lint``   — Layer-1 per-file linter for determinism and module-state
  hazards (``--list-rules`` for ids);
- ``verify --deep`` adds the Layer-2 routing-invariant analyzer;
- ``obs``    — observability: ``summary`` / ``compare`` over the run
  manifests that ``run --trace DIR`` / ``world --trace DIR`` write,
  ``ingest`` / ``trend`` for the append-only benchmark history and
  its one regression gate, and ``dashboard`` for the combined per-run
  report (terminal or ``--html``);
- ``explain`` — decision provenance: ``client`` (why one probe landed
  where it did, end to end), ``diff`` (attribute every flipped client
  between two prefixes to the AS decision that changed, §5.4), and
  ``catchment`` (per-site winner-tier breakdown of one prefix);
- ``cache`` — persistent routing-table cache: ``stats`` (the current
  generation's entries, and each stale one's) / ``clear`` (every
  generation); enable it with ``--cache-dir`` / ``REPRO_CACHE_DIR`` on
  builds;
- ``digest`` — routing-table digest over the announced prefixes; used
  by CI to assert serial and ``REPRO_WORKERS=4`` runs are byte-equal.

Before dispatching any command, :func:`main` refuses (exit 2) a
``REPRO_WORKERS`` that is not a non-negative integer, a cache path
(``--cache-dir``, ``cache stats|clear --dir`` or ``REPRO_CACHE_DIR``)
that exists and is not a directory, and a ``--trace`` path that exists
and is not a directory.
"""

from __future__ import annotations

import argparse
import io
import sys
import time
from typing import Sequence

from repro.experiments import config
from repro.experiments.base import experiment_name
from repro.experiments.runner import ALL_EXPERIMENTS, run_all
from repro.experiments.world import World, get_world


def _config_from_args(args: argparse.Namespace):
    name = getattr(args, "config_name", None)
    if name:
        return config.by_name(name)
    return config.SMALL if getattr(args, "small", False) else config.DEFAULT


def _add_config_argument(parser: argparse.ArgumentParser) -> None:
    """``--config NAME`` preset selector (``--small`` stays as shorthand)."""
    parser.add_argument(
        "--config", dest="config_name", metavar="NAME",
        choices=[c.name for c in config.CONFIGS],
        help="world preset to build (%(choices)s); overrides --small",
    )


def _apply_cache_dir(args: argparse.Namespace) -> None:
    """Honour ``--cache-dir DIR`` by overriding the default cache."""
    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir:
        from repro.par.cache import RoutingTableCache, set_default_cache

        set_default_cache(RoutingTableCache(cache_dir))


def _cmd_world(args: argparse.Namespace) -> int:
    from repro.obs.manifest import tracing
    from repro.topology.stats import summarize

    cfg = _config_from_args(args)
    _apply_cache_dir(args)
    with tracing(args.trace, label="repro-world", config=cfg,
                 argv=sys.argv[1:]) as recorder:
        start = time.perf_counter()
        world = World(cfg)
        elapsed = time.perf_counter() - start
    print(f"world '{cfg.name}' built in {elapsed:.2f}s")
    print(summarize(world.topology).as_text())
    print(
        f"probes: {len(world.probes.all_probes())} total, "
        f"{len(world.usable_probes)} usable, {len(world.groups)} groups"
    )
    print(
        "deployments: Edgio (3- and 4-region), Imperva-6, Imperva-NS, "
        "Tangled (12 sites)"
    )
    if recorder is not None and recorder.manifest_path is not None:
        print(f"[obs] manifest written to {recorder.manifest_path}")
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    for module, description in ALL_EXPERIMENTS:
        name = module.__name__.rsplit(".", 1)[-1]
        print(f"{name:18} {description}")
    return 0


def _by_name(selected: Sequence[tuple[object, str]],
             results: list[object]) -> dict[str, object]:
    """Results keyed by experiment name: the ``done`` the claims read."""
    return {experiment_name(m): r for (m, _), r in zip(selected, results)}


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    wanted = set(args.experiments)
    selected = [
        (module, description)
        for module, description in ALL_EXPERIMENTS
        if not wanted or module.__name__.rsplit(".", 1)[-1] in wanted
    ]
    if wanted:
        known = {m.__name__.rsplit(".", 1)[-1] for m, _ in ALL_EXPERIMENTS}
        unknown = wanted - known
        if unknown:
            print(f"unknown experiments: {', '.join(sorted(unknown))}",
                  file=sys.stderr)
            print(f"available: {', '.join(sorted(known))}", file=sys.stderr)
            return 2
    from repro.obs.manifest import tracing

    _apply_cache_dir(args)
    with tracing(args.trace, label="repro-run", config=cfg,
                 argv=sys.argv[1:]) as recorder:
        world = get_world(cfg)
        results, _ = run_all(world, selected=selected, plots=args.plots)
        if recorder is not None:
            from repro.obs.health import record_health

            record_health(world, _by_name(selected, results))
    if args.json:
        from repro.experiments.export import export_results

        export_results(results, args.json)
        print(f"structured results written to {args.json}")
    if recorder is not None and recorder.manifest_path is not None:
        print(f"[obs] manifest written to {recorder.manifest_path}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.experiments.claims import render_scorecard, verify_claims

    world = get_world(_config_from_args(args))
    outcomes = verify_claims(world)
    print(render_scorecard(outcomes))
    status = 0 if all(o.passed for o in outcomes) else 1
    if getattr(args, "deep", False):
        from repro.lint.invariants import analyze_world, render_invariant_report

        findings = analyze_world(world)
        print()
        print(render_invariant_report(findings))
        if findings:
            status = 1
    return status


def _cmd_lint(args: argparse.Namespace) -> int:
    """Layer-1 static analysis over source files."""
    from pathlib import Path

    from repro.lint.findings import RULES
    from repro.lint.runner import default_target, lint_paths, render_report

    if args.list_rules:
        width = max(len(rule_id) for rule_id in RULES)
        for rule_id, spec in sorted(RULES.items()):
            print(f"{rule_id:{width}}  {spec.summary}")
        return 0
    targets = args.paths or [str(default_target())]
    missing = [t for t in targets if not Path(t).exists()]
    if missing:
        print(f"no such file or directory: {', '.join(missing)}",
              file=sys.stderr)
        return 2
    findings = lint_paths(targets)
    print(render_report(findings))
    if args.json:
        import json

        document = {
            "schema": 1,
            "generated_by": "repro lint",
            "findings": [f.to_dict() for f in findings],
        }
        Path(args.json).write_text(
            json.dumps(document, indent=2) + "\n", encoding="utf-8"
        )
        print(f"findings written to {args.json}")
    return 1 if findings else 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Generate a markdown report: scorecard + every experiment render."""
    from repro.experiments.claims import render_scorecard, verify_claims

    cfg = _config_from_args(args)
    world = get_world(cfg)
    results, _ = run_all(world, stream=io.StringIO())
    outcomes = verify_claims(world, done=_by_name(ALL_EXPERIMENTS, results))
    sections = [
        "# Reproduction report",
        "",
        f"World: `{cfg.name}` — {world.topology.num_nodes} nodes, "
        f"{world.topology.num_links} links, "
        f"{len(world.usable_probes)} usable probes, "
        f"{len(world.groups)} probe groups.",
        "",
        "```",
        render_scorecard(outcomes),
        "```",
    ]
    for (_, description), result in zip(ALL_EXPERIMENTS, results):
        sections += ["", f"## {description}", "", "```",
                     result.render(), "```"]
    text = "\n".join(sections) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
        print(f"report written to {args.out}")
    else:
        print(text)
    return 0 if all(o.passed for o in outcomes) else 1


def _cmd_lg(args: argparse.Namespace) -> int:
    """Looking glass: one AS's routes for a deployment's prefixes."""
    from repro.routing.inspect import show_route, summarize_catchment

    world = get_world(_config_from_args(args))
    deployments = {
        "im6": world.imperva.im6,
        "ns": world.imperva.ns,
        "eg3": world.edgio.eg3,
        "eg4": world.edgio.eg4,
        "tangled": world.tangled.global_deployment,
    }
    target = deployments[args.deployment]
    if hasattr(target, "regional_addresses"):
        addrs = target.regional_addresses()
    else:
        addrs = [target.address]
    for addr in addrs:
        table = world.engine.table_for(addr)
        if args.asn is not None:
            node = next(
                (n for n in world.topology.nodes() if n.asn == args.asn
                 and not n.is_site),
                None,
            )
            if node is None:
                print(f"unknown ASN {args.asn}", file=sys.stderr)
                return 2
            print(show_route(world.topology, table, node.node_id))
        else:
            print(summarize_catchment(world.topology, table)
                  .render(world.topology))
        print()
    return 0


def _cmd_obs_summary(args: argparse.Namespace) -> int:
    """Top spans by self time + counter/gauge tables for one manifest."""
    from repro.obs.manifest import load_manifest
    from repro.obs.report import render_summary

    try:
        manifest = load_manifest(args.run)
    except (OSError, ValueError) as exc:
        print(f"cannot read manifest {args.run}: {exc}", file=sys.stderr)
        return 2
    print(render_summary(manifest, top=args.top))
    return 0


def _cmd_obs_compare(args: argparse.Namespace) -> int:
    """Per-span wall-time deltas between two manifests (a report only)."""
    from repro.obs.manifest import load_manifest
    from repro.obs.report import compare_manifests, render_compare

    try:
        base = load_manifest(args.base)
        other = load_manifest(args.other)
    except (OSError, ValueError) as exc:
        print(f"cannot read manifests: {exc}", file=sys.stderr)
        return 2
    deltas = compare_manifests(base, other)
    print(render_compare(base, other, deltas, top=args.top))
    return 0


def _cmd_obs_ingest(args: argparse.Namespace) -> int:
    """Append run manifests / BENCH artifacts to the trend history."""
    from repro.obs.trend import history_file, ingest_files

    try:
        results = ingest_files(args.history, args.files)
    except (OSError, ValueError) as exc:
        print(f"cannot ingest: {exc}", file=sys.stderr)
        return 2
    for record, appended in results:
        if appended:
            print(f"ingested {record.run_id} ({record.label}, "
                  f"{len(record.series)} series) -> "
                  f"{history_file(args.history, record.label)}")
        else:
            print(f"skipped {record.run_id} ({record.label}): "
                  "already in history")
    return 0


def _cmd_obs_trend(args: argparse.Namespace) -> int:
    """Sparkline trends over the history; --gate fails on regressions."""
    from repro.obs.trend import check_history

    text, regressions = check_history(
        args.history, window=args.window, top=args.top
    )
    print(text)
    return 1 if args.gate and regressions else 0


def _cmd_obs_dashboard(args: argparse.Namespace) -> int:
    """Combined report for one run: spans, health, trends."""
    from pathlib import Path

    from repro.obs.manifest import load_manifest
    from repro.obs.report import render_dashboard, render_dashboard_html

    try:
        manifest = load_manifest(args.run)
    except (OSError, ValueError) as exc:
        print(f"cannot read manifest {args.run}: {exc}", file=sys.stderr)
        return 2
    print(render_dashboard(manifest, history_dir=args.history, top=args.top))
    if args.html:
        page = render_dashboard_html(manifest, history_dir=args.history,
                                     top=args.top)
        out = Path(args.html)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(page, encoding="utf-8")
        print(f"\ndashboard written to {out}")
    return 0


def _explain_session(args: argparse.Namespace):
    from repro.explain.journey import ExplainSession

    return ExplainSession(get_world(_config_from_args(args)))


def _cmd_explain_client(args: argparse.Namespace) -> int:
    """End-to-end journey of one probe: DNS -> BGP trail -> landing site."""
    from repro.obs.manifest import tracing

    cfg = _config_from_args(args)
    modes = ["regional", "global"] if args.mode == "both" else [args.mode]
    with tracing(args.trace, label="repro-explain", config=cfg,
                 argv=sys.argv[1:]) as recorder:
        session = _explain_session(args)
        try:
            journeys = [session.journey(args.probe, mode) for mode in modes]
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        from repro.explain.journey import render_journey

        print("\n\n".join(
            render_journey(j, session.topology) for j in journeys
        ))
        if recorder is not None:
            recorder.explain_data = {
                "journeys": [j.to_dict(session.topology) for j in journeys],
            }
    if recorder is not None and recorder.manifest_path is not None:
        print(f"\n[obs] manifest written to {recorder.manifest_path}")
    return 0


def _cmd_explain_diff(args: argparse.Namespace) -> int:
    """Catchment diff of two prefixes, each flip attributed to a decision."""
    from repro.obs.manifest import tracing

    cfg = _config_from_args(args)
    with tracing(args.trace, label="repro-explain", config=cfg,
                 argv=sys.argv[1:]) as recorder:
        session = _explain_session(args)
        from repro.explain.diff import (
            diff_catchments,
            diff_regional_vs_global,
            render_diff_dict,
        )

        try:
            if {args.a, args.b} == {"global", "regional"}:
                diff = diff_regional_vs_global(session)
            else:
                diff = diff_catchments(
                    session,
                    session.announcement_for(args.a),
                    session.announcement_for(args.b),
                    label_a=args.a, label_b=args.b,
                )
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        data = diff.to_dict(session.topology)
        print(render_diff_dict(data, max_examples=args.examples))
        if recorder is not None:
            recorder.explain_data = {"diffs": [data]}
    if recorder is not None and recorder.manifest_path is not None:
        print(f"\n[obs] manifest written to {recorder.manifest_path}")
    return 0


def _cmd_explain_catchment(args: argparse.Namespace) -> int:
    """Catchment summary of one prefix with winner-tier breakdown."""
    from collections import Counter

    from repro.routing.inspect import summarize_catchment

    session = _explain_session(args)
    try:
        announcement = session.announcement_for(args.prefix)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    table = session.table_for(announcement)
    print(summarize_catchment(session.topology, table)
          .render(session.topology))
    tiers: Counter = Counter()
    stages: Counter = Counter()
    prefix = str(announcement.prefix)
    for (trail_prefix, _node), trail in session.recorder.selection.items():
        if trail_prefix != prefix:
            continue
        tiers[trail.winner_tier] += 1
        stages[trail.stage] += 1
    print("\nwinning tier per AS:")
    for tier, count in tiers.most_common():
        print(f"  {tier:10} {count:5}")
    print("assigning stage per AS:")
    for stage, count in stages.most_common():
        print(f"  {stage:16} {count:5}")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    """Persistent routing-table cache: ``stats`` / ``clear``."""
    from repro.par.cache import (
        RoutingTableCache,
        default_cache_dir,
        resolve_cache,
    )

    if args.dir:
        cache = RoutingTableCache(args.dir)
    else:
        cache = resolve_cache() or RoutingTableCache(default_cache_dir())
    if args.cache_command == "stats":
        sizes = cache.entry_size_stats()
        print(f"cache directory: {cache.directory}")
        print(f"generation: {cache.generation_dir.name}")
        print(f"entries: {sizes.count}")
        print(f"bytes: {sizes.total_bytes}")
        if sizes.count:
            print(f"entry bytes: min {sizes.min_bytes}  "
                  f"mean {sizes.mean_bytes:.0f}  max {sizes.max_bytes}")
        for stale in cache.stale():
            where = ("top level (before generations)" if stale.name == "."
                     else f"generation {stale.name}")
            print(f"stale, {where}: {stale.count} entries, "
                  f"{stale.total_bytes} bytes (repro cache clear removes them)")
        return 0
    removed = cache.clear()
    print(f"removed {removed} entries from {cache.directory}")
    return 0


def _cmd_digest(args: argparse.Namespace) -> int:
    """Print the routing-table digest of a world's announced prefixes.

    The digest covers every announcement in registration order and is
    byte-identical across serial and parallel runs — the check CI runs
    between its serial and ``REPRO_WORKERS=4`` legs.
    """
    from repro.par.cache import tables_digest

    _apply_cache_dir(args)
    cfg = _config_from_args(args)
    world = World(cfg)
    tables = world.engine.routing.compute_many(
        world.registry.announcements()
    )
    print(tables_digest(tables))
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.experiments import fig1, fig7

    module = fig1 if args.case == "fig1" else fig7
    print(module.run().render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regional IP anycast reproduction (SIGCOMM 2023)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_world = sub.add_parser("world", help="build and summarise a world")
    p_world.add_argument("--small", action="store_true",
                         help="use the reduced test-scale world")
    _add_config_argument(p_world)
    p_world.add_argument("--trace", metavar="DIR",
                         help="record an obs trace of the build into DIR")
    p_world.add_argument("--cache-dir", metavar="DIR",
                         help="persist routing tables under DIR "
                              "(see also REPRO_CACHE_DIR)")
    p_world.set_defaults(func=_cmd_world)

    p_list = sub.add_parser("list", help="list available experiments")
    p_list.set_defaults(func=_cmd_list)

    p_run = sub.add_parser("run", help="run experiments (all by default)")
    p_run.add_argument("experiments", nargs="*",
                       help="experiment names (e.g. table3 fig6); empty = all")
    p_run.add_argument("--small", action="store_true",
                       help="use the reduced test-scale world")
    _add_config_argument(p_run)
    p_run.add_argument("--json", metavar="FILE",
                       help="export structured results to FILE")
    p_run.add_argument("--plots", action="store_true",
                       help="also render ASCII CDF plots where available")
    p_run.add_argument("--trace", metavar="DIR",
                       help="record an obs trace; writes run-<id>.json and "
                            "events-<id>.jsonl into DIR")
    p_run.add_argument("--cache-dir", metavar="DIR",
                       help="persist routing tables under DIR "
                            "(see also REPRO_CACHE_DIR)")
    p_run.set_defaults(func=_cmd_run)

    p_report = sub.add_parser(
        "report", help="generate a markdown report (scorecard + experiments)")
    p_report.add_argument("--small", action="store_true")
    p_report.add_argument("--out", metavar="FILE",
                          help="write to FILE instead of stdout")
    p_report.set_defaults(func=_cmd_report)

    p_lg = sub.add_parser(
        "lg", help="looking glass: catchments or one AS's routes")
    p_lg.add_argument("deployment",
                      choices=["im6", "ns", "eg3", "eg4", "tangled"])
    p_lg.add_argument("--asn", type=int,
                      help="show this AS's routes instead of the summary")
    p_lg.add_argument("--small", action="store_true")
    p_lg.set_defaults(func=_cmd_lg)

    p_verify = sub.add_parser(
        "verify", help="check every paper claim against a fresh world")
    p_verify.add_argument("--small", action="store_true",
                          help="use the reduced test-scale world")
    p_verify.add_argument("--deep", action="store_true",
                          help="also run the routing-invariant analyzer "
                               "(valley-freeness, export rules, catchments)")
    p_verify.set_defaults(func=_cmd_verify)

    p_lint = sub.add_parser(
        "lint", help="static analysis: per-file determinism and "
                     "module-state linter over source trees")
    p_lint.add_argument("paths", nargs="*",
                        help="files or directories to lint "
                             "(default: the installed repro package)")
    p_lint.add_argument("--list-rules", action="store_true",
                        help="list every rule id and exit")
    p_lint.add_argument("--json", metavar="FILE",
                        help="also write findings as JSON to FILE")
    p_lint.set_defaults(func=_cmd_lint)

    p_obs = sub.add_parser(
        "obs",
        help="observability: summary / compare / ingest / trend / "
             "dashboard")
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    p_obs_summary = obs_sub.add_parser(
        "summary", help="where one traced run spent its time")
    p_obs_summary.add_argument("run", help="a run-<id>.json manifest")
    p_obs_summary.add_argument("--top", type=int, default=15, metavar="N",
                               help="span paths to show (default 15)")
    p_obs_summary.set_defaults(func=_cmd_obs_summary)
    p_obs_compare = obs_sub.add_parser(
        "compare", help="per-span wall-time deltas between two runs")
    p_obs_compare.add_argument("base", help="baseline run-<id>.json")
    p_obs_compare.add_argument("other", help="candidate run-<id>.json")
    p_obs_compare.add_argument("--top", type=int, default=20, metavar="N",
                               help="span paths to show (default 20)")
    p_obs_compare.set_defaults(func=_cmd_obs_compare)
    p_obs_ingest = obs_sub.add_parser(
        "ingest",
        help="append run manifests / BENCH_obs.json to the trend history")
    p_obs_ingest.add_argument("files", nargs="+",
                              help="run-<id>.json or BENCH_obs.json files")
    p_obs_ingest.add_argument("--history", default="obs/history",
                              metavar="DIR",
                              help="history directory (default obs/history)")
    p_obs_ingest.set_defaults(func=_cmd_obs_ingest)
    p_obs_trend = obs_sub.add_parser(
        "trend", help="sparkline trends over the ingested history and the "
                      "one regression gate")
    p_obs_trend.add_argument("--history", default="obs/history",
                             metavar="DIR",
                             help="history directory (default obs/history)")
    p_obs_trend.add_argument("--gate", action="store_true",
                             help="exit non-zero when the latest run "
                                  "regresses past the median+MAD threshold")
    p_obs_trend.add_argument("--window", type=int, default=20, metavar="N",
                             help="history window per metric (default 20)")
    p_obs_trend.add_argument("--top", type=int, default=12, metavar="N",
                             help="metrics shown per label, by latest "
                                  "value (default 12); serial/parallel "
                                  "ratios are always shown")
    p_obs_trend.set_defaults(func=_cmd_obs_trend)
    p_obs_dash = obs_sub.add_parser(
        "dashboard",
        help="combined report for one run: spans, health, trends")
    p_obs_dash.add_argument("run", help="a run-<id>.json manifest")
    p_obs_dash.add_argument("--history", default=None, metavar="DIR",
                            help="also render trend sparklines from DIR")
    p_obs_dash.add_argument("--html", default=None, metavar="OUT",
                            help="additionally write a static HTML page "
                                 "to OUT")
    p_obs_dash.add_argument("--top", type=int, default=10, metavar="N",
                            help="rows per table (default 10)")
    p_obs_dash.set_defaults(func=_cmd_obs_dashboard)

    p_explain = sub.add_parser(
        "explain",
        help="decision provenance: why a client landed at a site "
             "(client / diff / catchment)")
    explain_sub = p_explain.add_subparsers(dest="explain_command",
                                           required=True)
    p_ex_client = explain_sub.add_parser(
        "client",
        help="end-to-end journey of one probe: DNS decision, per-AS "
             "selection trail, forwarding hops, landing site")
    p_ex_client.add_argument("probe", type=int, help="probe id")
    p_ex_client.add_argument("--mode", choices=["regional", "global", "both"],
                             default="both",
                             help="deployment(s) to explain (default both)")
    p_ex_client.add_argument("--small", action="store_true",
                             help="use the reduced test-scale world")
    p_ex_client.add_argument("--trace", metavar="DIR",
                             help="write a run manifest with the journeys "
                                  "embedded into DIR")
    p_ex_client.set_defaults(func=_cmd_explain_client)
    p_ex_diff = explain_sub.add_parser(
        "diff",
        help="catchment diff of two prefixes; attributes each flipped "
             "client to the AS decision that changed (sec5.4)")
    p_ex_diff.add_argument("a", help="address/prefix, or the pair "
                                     "'global regional' for the sec5.4 "
                                     "per-client comparison")
    p_ex_diff.add_argument("b", help="address/prefix (or 'regional')")
    p_ex_diff.add_argument("--small", action="store_true",
                           help="use the reduced test-scale world")
    p_ex_diff.add_argument("--examples", type=int, default=3, metavar="N",
                           help="example flips shown per case (default 3)")
    p_ex_diff.add_argument("--trace", metavar="DIR",
                           help="write a run manifest with the diff "
                                "embedded into DIR")
    p_ex_diff.set_defaults(func=_cmd_explain_diff)
    p_ex_catch = explain_sub.add_parser(
        "catchment",
        help="catchment summary of one prefix with winner-tier breakdown")
    p_ex_catch.add_argument("prefix", help="an address inside the prefix")
    p_ex_catch.add_argument("--small", action="store_true",
                            help="use the reduced test-scale world")
    p_ex_catch.set_defaults(func=_cmd_explain_catchment)

    p_cache = sub.add_parser(
        "cache", help="persistent routing-table cache: stats / clear")
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    p_cache_stats = cache_sub.add_parser(
        "stats", help="entry count and size of the on-disk cache, and of "
                      "stale generations")
    p_cache_stats.add_argument("--dir", metavar="DIR",
                               help="cache directory (default: "
                                    "REPRO_CACHE_DIR or ~/.cache/repro)")
    p_cache_stats.set_defaults(func=_cmd_cache)
    p_cache_clear = cache_sub.add_parser(
        "clear", help="delete every cached routing table, stale "
                      "generations included")
    p_cache_clear.add_argument("--dir", metavar="DIR",
                               help="cache directory (default: "
                                    "REPRO_CACHE_DIR or ~/.cache/repro)")
    p_cache_clear.set_defaults(func=_cmd_cache)

    p_digest = sub.add_parser(
        "digest",
        help="routing-table digest over the announced prefixes "
             "(serial/parallel equality check)")
    p_digest.add_argument("--small", action="store_true",
                          help="use the reduced test-scale world")
    _add_config_argument(p_digest)
    p_digest.add_argument("--cache-dir", metavar="DIR",
                          help="persist routing tables under DIR "
                               "(see also REPRO_CACHE_DIR)")
    p_digest.set_defaults(func=_cmd_digest)

    p_demo = sub.add_parser("demo", help="run a micro-case standalone")
    p_demo.add_argument("case", choices=["fig1", "fig7"])
    p_demo.set_defaults(func=_cmd_demo)
    return parser


def _misconfiguration(args: argparse.Namespace) -> str | None:
    """What in the settings would break a run, found before any build.

    A ``REPRO_WORKERS`` that is not a non-negative integer, a cache path
    (``--cache-dir`` or ``cache stats|clear --dir``, else
    ``REPRO_CACHE_DIR``) that exists and is not a directory, or a
    ``--trace`` path that exists and is not a directory; None when none
    applies.
    """
    import os
    from pathlib import Path

    from repro.par.cache import CACHE_DIR_ENV
    from repro.par.routing import worker_count

    try:
        worker_count()
    except ValueError as exc:
        return str(exc)
    source, directory = "--cache-dir", getattr(args, "cache_dir", None)
    if not directory:
        source, directory = "--dir", getattr(args, "dir", None)
    if not directory:
        source = CACHE_DIR_ENV
        directory = os.environ.get(CACHE_DIR_ENV, "").strip()
    paths = [(source, Path(directory).expanduser())] if directory else []
    if getattr(args, "trace", None):
        paths.append(("--trace", Path(args.trace)))
    for source, path in paths:
        if path.exists() and not path.is_dir():
            return (f"{source} names {str(path)!r}, which exists and is "
                    "not a directory")
    return None


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    problem = _misconfiguration(args)
    if problem is not None:
        print(f"repro: {problem}", file=sys.stderr)
        return 2
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
