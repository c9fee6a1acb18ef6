"""Summaries, A/B comparisons, and the run dashboard over manifests.

``repro obs summary`` answers "where did this run spend its time" (top-N
span paths by *self* time — wall time not attributed to a child span —
plus counter and gauge tables).  ``repro obs compare`` lines two runs up
span-path by span-path and reports the wall-time deltas and the
counters that moved; it judges nothing (the one regression gate is
:mod:`repro.obs.trend`).  ``repro obs dashboard`` composes the
full picture for one run — span hotspots, the span tree, health gauges,
and trend sparklines — as a terminal report or a static HTML page.
"""

from __future__ import annotations

import html as _html
from dataclasses import dataclass
from pathlib import Path

from repro.obs.manifest import RunManifest
from repro.obs.recorder import SpanRecord


@dataclass(frozen=True)
class SpanStat:
    """Aggregate of every span sharing one tree path."""

    path: str
    calls: int
    wall_ms: float
    self_ms: float
    cpu_ms: float


def aggregate_spans(root: SpanRecord) -> dict[str, SpanStat]:
    """Per-path totals over a span tree (paths are slash-joined names)."""
    sums: dict[str, list[float]] = {}
    for path, record in root.walk():
        entry = sums.setdefault(path, [0.0, 0.0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += record.wall_ms
        entry[2] += record.self_wall_ms
        entry[3] += record.cpu_ms
    return {
        path: SpanStat(path=path, calls=int(entry[0]), wall_ms=entry[1],
                       self_ms=entry[2], cpu_ms=entry[3])
        for path, entry in sums.items()
    }


def _fmt_ms(value: float) -> str:
    return f"{value:10.1f}"


def render_summary(manifest: RunManifest, top: int = 15) -> str:
    """The human-readable report for one manifest."""
    lines = [
        f"run       {manifest.run_id}",
        f"label     {manifest.label}",
        f"config    {manifest.config_name or '-'}",
        f"git       {manifest.git_sha or '-'}",
        f"wall      {manifest.root.wall_ms / 1000.0:.2f}s  "
        f"(cpu {manifest.root.cpu_ms / 1000.0:.2f}s)",
    ]
    if manifest.seeds:
        seeds = ", ".join(f"{k}={v}" for k, v in sorted(manifest.seeds.items()))
        lines.append(f"seeds     {seeds}")
    stats = sorted(
        aggregate_spans(manifest.root).values(),
        key=lambda s: (-s.self_ms, s.path),
    )
    shown = stats[:top]
    width = max((len(s.path) for s in shown), default=4)
    lines += [
        "",
        f"top {len(shown)} span paths by self time:",
        f"  {'path':{width}}  {'calls':>6}  {'wall ms':>10}  "
        f"{'self ms':>10}  {'cpu ms':>10}",
    ]
    for stat in shown:
        lines.append(
            f"  {stat.path:{width}}  {stat.calls:6d}  {_fmt_ms(stat.wall_ms)}  "
            f"{_fmt_ms(stat.self_ms)}  {_fmt_ms(stat.cpu_ms)}"
        )
    counters = manifest.counters()
    if counters:
        lines += ["", "counters:"]
        cwidth = max(len(name) for name in counters)
        for name in sorted(counters):
            value = counters[name]
            shown_value = int(value) if value == int(value) else round(value, 3)
            lines.append(f"  {name:{cwidth}}  {shown_value}")
    gauges = manifest.gauges()
    if gauges:
        lines += ["", "gauges:"]
        gwidth = max(len(name) for name in gauges)
        for name in sorted(gauges):
            lines.append(f"  {name:{gwidth}}  {gauges[name]:g}")
    return "\n".join(lines)


def _peak_wall_ms(record: SpanRecord) -> float:
    """The longest wall time of any span in ``record``'s subtree."""
    return max([record.wall_ms, *map(_peak_wall_ms, record.children)])


def render_span_tree(
    root: SpanRecord,
    *,
    max_depth: int = 6,
    min_wall_ms: float = 0.5,
) -> str:
    """Indented span tree with wall/self times, pre-order.

    A child whose whole subtree stays under ``min_wall_ms`` is folded
    into a single summary line so deep traces stay readable.  A short
    span can hold longer ones: ``par.merge`` holds one ``par.chunk`` per
    task, each timed in the worker process that ran it.
    """
    lines = [f"{'span':52}  {'wall ms':>10}  {'self ms':>10}  {'cpu ms':>10}"]

    def emit(record: SpanRecord, depth: int) -> None:
        name = f"{'  ' * depth}{record.name}"
        flag = "" if record.status == "ok" else f"  [{record.status}]"
        lines.append(
            f"{name:52}  {record.wall_ms:10.1f}  {record.self_wall_ms:10.1f}"
            f"  {record.cpu_ms:10.1f}{flag}"
        )
        if depth >= max_depth:
            if record.children:
                lines.append(f"{'  ' * (depth + 1)}... "
                             f"({len(record.children)} child span(s))")
            return
        hidden = 0
        hidden_ms = 0.0
        for child in record.children:
            if _peak_wall_ms(child) < min_wall_ms:
                hidden += 1
                hidden_ms += child.wall_ms
                continue
            emit(child, depth + 1)
        if hidden:
            pad = "  " * (depth + 1)
            lines.append(f"{pad}({hidden} span(s) under {min_wall_ms:g} ms, "
                         f"{hidden_ms:.1f} ms total)")

    emit(root, 0)
    return "\n".join(lines)


@dataclass(frozen=True)
class SpanDelta:
    """Wall-time movement of one span path between two runs."""

    path: str
    base_ms: float
    other_ms: float

    @property
    def delta_ms(self) -> float:
        return self.other_ms - self.base_ms

    @property
    def delta_pct(self) -> float | None:
        """Relative change; None when the base had no time at this path."""
        if self.base_ms <= 0.0:
            return None
        return 100.0 * (self.other_ms - self.base_ms) / self.base_ms


def compare_manifests(
    base: RunManifest, other: RunManifest
) -> list[SpanDelta]:
    """Per-span-path wall-time deltas, largest absolute movement first."""
    base_stats = aggregate_spans(base.root)
    other_stats = aggregate_spans(other.root)
    paths = set(base_stats) | set(other_stats)
    deltas = [
        SpanDelta(
            path=path,
            base_ms=base_stats[path].wall_ms if path in base_stats else 0.0,
            other_ms=other_stats[path].wall_ms if path in other_stats else 0.0,
        )
        for path in sorted(paths)
    ]
    deltas.sort(key=lambda d: (-abs(d.delta_ms), d.path))
    return deltas


def counter_deltas(
    base: RunManifest, other: RunManifest
) -> dict[str, tuple[float, float]]:
    """``name -> (base, other)`` for every counter that moved."""
    a, b = base.counters(), other.counters()
    moved: dict[str, tuple[float, float]] = {}
    for name in sorted(set(a) | set(b)):
        pair = (a.get(name, 0.0), b.get(name, 0.0))
        if pair[0] != pair[1]:  # repro-lint: disable=float-equality
            moved[name] = pair
    return moved


def render_compare(
    base: RunManifest,
    other: RunManifest,
    deltas: list[SpanDelta],
    *,
    top: int = 20,
) -> str:
    """The comparison report: span deltas, then counters that moved."""
    lines = [
        f"base   {base.run_id}  ({base.config_name or '-'}, "
        f"{base.root.wall_ms / 1000.0:.2f}s)",
        f"other  {other.run_id}  ({other.config_name or '-'}, "
        f"{other.root.wall_ms / 1000.0:.2f}s)",
    ]
    if base.git_sha != other.git_sha:
        lines.append(f"git    {base.git_sha or '-'} -> {other.git_sha or '-'}")
    shown = deltas[:top]
    width = max((len(d.path) for d in shown), default=4)
    lines += [
        "",
        f"top {len(shown)} span paths by |delta|:",
        f"  {'path':{width}}  {'base ms':>10}  {'other ms':>10}  "
        f"{'delta ms':>10}  {'delta %':>8}",
    ]
    for delta in shown:
        pct = delta.delta_pct
        pct_text = f"{pct:+7.1f}%" if pct is not None else "    new "
        lines.append(
            f"  {delta.path:{width}}  {_fmt_ms(delta.base_ms)}  "
            f"{_fmt_ms(delta.other_ms)}  {delta.delta_ms:+10.1f}  {pct_text}"
        )
    moved = counter_deltas(base, other)
    if moved:
        lines += ["", "counters that moved:"]
        cwidth = max(len(name) for name in moved)
        for name, (a_val, b_val) in moved.items():
            lines.append(f"  {name:{cwidth}}  {a_val:g} -> {b_val:g}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Dashboard: one run, every lens
# ----------------------------------------------------------------------
def _hotspot_table(manifest: RunManifest, top: int) -> str:
    stats = sorted(
        aggregate_spans(manifest.root).values(),
        key=lambda s: (-s.self_ms, s.path),
    )[:top]
    width = max((len(s.path) for s in stats), default=4)
    lines = [
        f"  {'path':{width}}  {'calls':>6}  {'wall ms':>10}  "
        f"{'self ms':>10}  {'cpu ms':>10}"
    ]
    for stat in stats:
        lines.append(
            f"  {stat.path:{width}}  {stat.calls:6d}  {_fmt_ms(stat.wall_ms)}  "
            f"{_fmt_ms(stat.self_ms)}  {_fmt_ms(stat.cpu_ms)}"
        )
    return "\n".join(lines)


def render_explain_section(data: dict[str, object]) -> str:
    """Render a manifest's ``explain`` payload (journeys and/or diffs).

    The payload is plain data produced by ``repro explain ... --trace``;
    the renderers are imported lazily so the obs core keeps no static
    dependency on :mod:`repro.explain`.
    """
    from repro.explain.diff import render_diff_dict
    from repro.explain.journey import render_journey_dict

    parts: list[str] = []
    journeys = data.get("journeys")
    if isinstance(journeys, list):
        parts.extend(render_journey_dict(j) for j in journeys
                     if isinstance(j, dict))
    diffs = data.get("diffs")
    if isinstance(diffs, list):
        parts.extend(render_diff_dict(d) for d in diffs
                     if isinstance(d, dict))
    if not parts:
        return "no journeys or diffs recorded"
    return "\n\n".join(parts)


def dashboard_sections(
    manifest: RunManifest,
    *,
    history_dir: Path | str | None = None,
    top: int = 10,
) -> list[tuple[str, str]]:
    """The dashboard's ``(title, body)`` sections, in display order."""
    from repro.obs.health import health_gauges, render_health

    header = [
        f"run       {manifest.run_id}",
        f"label     {manifest.label}",
        f"config    {manifest.config_name or '-'}",
        f"git       {manifest.git_sha or '-'}",
        f"wall      {manifest.root.wall_ms / 1000.0:.2f}s  "
        f"(cpu {manifest.root.cpu_ms / 1000.0:.2f}s)",
    ]
    if manifest.seeds:
        seeds = ", ".join(f"{k}={v}" for k, v in sorted(manifest.seeds.items()))
        header.append(f"seeds     {seeds}")
    sections = [
        ("run", "\n".join(header)),
        (f"span hotspots (top {top} by self time)",
         _hotspot_table(manifest, top)),
        ("span tree", render_span_tree(manifest.root)),
        ("health gauges", render_health(health_gauges(manifest))),
    ]
    if manifest.explain is not None:
        sections.append(
            ("explain: decision provenance",
             render_explain_section(manifest.explain)),
        )
    if history_dir is not None:
        from repro.obs.trend import check_history

        trend_text, _regressions = check_history(history_dir)
        sections.append((f"trend ({history_dir})", trend_text))
    return sections


def render_dashboard(
    manifest: RunManifest,
    *,
    history_dir: Path | str | None = None,
    top: int = 10,
) -> str:
    """The combined terminal report for one traced run."""
    parts = []
    for title, body in dashboard_sections(
        manifest, history_dir=history_dir, top=top
    ):
        rule = "-" * max(20, len(title) + 4)
        parts.append(f"-- {title} {rule[len(title) + 4:]}\n{body}")
    return "\n\n".join(parts)


_HTML_STYLE = """\
:root { color-scheme: light dark; }
body { font-family: ui-monospace, SFMono-Regular, Menlo, Consolas, monospace;
       margin: 2rem auto; max-width: 72rem; padding: 0 1rem;
       background: Canvas; color: CanvasText; line-height: 1.45; }
h1 { font-size: 1.25rem; border-bottom: 1px solid color-mix(in srgb, CanvasText 25%, Canvas);
     padding-bottom: .5rem; }
h2 { font-size: 1rem; margin-top: 2rem; }
pre { background: color-mix(in srgb, CanvasText 6%, Canvas);
      border: 1px solid color-mix(in srgb, CanvasText 15%, Canvas);
      border-radius: 6px; padding: 1rem; overflow-x: auto; font-size: .85rem; }
"""


def render_dashboard_html(
    manifest: RunManifest,
    *,
    history_dir: Path | str | None = None,
    top: int = 10,
) -> str:
    """A self-contained static HTML page with the same sections."""
    title = f"repro run {manifest.run_id}"
    body = [f"<h1>{_html.escape(title)}</h1>"]
    for section_title, text in dashboard_sections(
        manifest, history_dir=history_dir, top=top
    ):
        body.append(f"<section><h2>{_html.escape(section_title)}</h2>")
        body.append(f"<pre>{_html.escape(text)}</pre></section>")
    return (
        "<!doctype html>\n<html lang=\"en\">\n<head>\n"
        "<meta charset=\"utf-8\">\n"
        "<meta name=\"viewport\" content=\"width=device-width, initial-scale=1\">\n"
        f"<title>{_html.escape(title)}</title>\n"
        f"<style>\n{_HTML_STYLE}</style>\n</head>\n<body>\n"
        + "\n".join(body)
        + "\n</body>\n</html>\n"
    )
