"""Tests for the repro.obs subsystem: recorder, manifests, CLI reports."""

from __future__ import annotations

import json
import time

import pytest

from repro import cli, obs
from repro.obs.events import JsonlEventSink, ListEventSink, read_events
from repro.obs.manifest import (
    RunManifest,
    from_recorder,
    load_manifest,
    new_run_id,
    seeds_of,
    tracing,
    write_manifest,
)
from repro.obs.recorder import NULL_SPAN, SpanRecord
from repro.obs.report import (
    aggregate_spans,
    compare_manifests,
    counter_deltas,
    dashboard_sections,
    render_dashboard,
    render_dashboard_html,
    render_span_tree,
    render_summary,
)


@pytest.fixture(autouse=True)
def _no_leftover_recorder():
    """Every test starts and ends with tracing disabled."""
    obs.uninstall()
    yield
    obs.uninstall()


class TestRecorder:
    def test_span_nesting_builds_a_tree(self):
        with obs.recording("t") as rec:
            with obs.span("a"):
                with obs.span("b"):
                    pass
                with obs.span("c", key="v"):
                    pass
            with obs.span("d"):
                pass
        root = rec.root
        assert [c.name for c in root.children] == ["a", "d"]
        a = root.children[0]
        assert [c.name for c in a.children] == ["b", "c"]
        assert a.children[1].attrs == {"key": "v"}
        paths = [p for p, _ in root.walk()]
        assert "t/a/b" in paths and "t/d" in paths

    def test_span_times_are_recorded(self):
        with obs.recording("t") as rec:
            with obs.span("sleepy"):
                time.sleep(0.02)
        sleepy = rec.root.find("sleepy")
        assert sleepy is not None
        assert sleepy.wall_ms >= 15.0
        assert sleepy.cpu_ms >= 0.0
        assert rec.root.wall_ms >= sleepy.wall_ms

    def test_self_time_excludes_children(self):
        parent = SpanRecord(name="p", wall_ms=100.0)
        parent.children.append(SpanRecord(name="c", wall_ms=60.0))
        assert parent.self_wall_ms == pytest.approx(40.0)

    def test_counters_attach_to_innermost_span(self):
        with obs.recording("t") as rec:
            obs.counter.inc("top", 1)
            with obs.span("a"):
                obs.counter.inc("x", 2)
                with obs.span("b"):
                    obs.counter.inc("x", 3)
        assert rec.root.counters == {"top": 1.0}
        a = rec.root.find("a")
        b = rec.root.find("b")
        assert a.counters == {"x": 2.0}
        assert b.counters == {"x": 3.0}
        assert rec.root.subtree_counters() == {"top": 1.0, "x": 5.0}

    def test_gauges_last_write_wins_per_span(self):
        with obs.recording("t") as rec:
            with obs.span("a"):
                obs.gauge.set("g", 1.0)
                obs.gauge.set("g", 9.0)
        assert rec.root.find("a").gauges == {"g": 9.0}

    def test_error_status_on_exception(self):
        with obs.recording("t") as rec:  # noqa: SIM117 - separate concerns
            with pytest.raises(ValueError):
                with obs.span("boom"):
                    raise ValueError("x")
        assert rec.root.find("boom").status == "error"
        # The stack unwound: a later span is a sibling, not a child.
        assert obs.active() is None

    def test_exception_does_not_wedge_the_stack(self):
        with obs.recording("t") as rec:
            with pytest.raises(RuntimeError):
                with obs.span("outer"), obs.span("inner"):
                    raise RuntimeError("x")
            with obs.span("after"):
                pass
        assert [c.name for c in rec.root.children] == ["outer", "after"]

    def test_recording_restores_previous_recorder(self):
        outer = obs.install(obs.Recorder("outer"))
        try:
            with obs.recording("inner") as inner:
                assert obs.active() is inner
            assert obs.active() is outer
        finally:
            obs.uninstall()

    def test_find_all(self):
        with obs.recording("t") as rec:
            for _ in range(3):
                with obs.span("rep"):
                    pass
        assert len(rec.root.find_all("rep")) == 3


class TestDisabledNoOp:
    def test_span_is_shared_null_singleton(self):
        assert obs.active() is None
        assert obs.span("anything") is NULL_SPAN
        assert obs.span("other", k=1) is NULL_SPAN
        assert NULL_SPAN.record is None
        with obs.span("nested"):
            assert obs.active() is None

    def test_counter_and_gauge_are_noops(self):
        obs.counter.inc("nothing", 5)
        obs.gauge.set("nothing", 5.0)
        assert obs.active() is None

    def test_disabled_overhead_is_small(self):
        """200k disabled counter bumps must stay well under a second."""
        start = time.perf_counter()
        for _ in range(200_000):
            obs.counter.inc("hot")
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0


class TestEvents:
    def test_events_stream_framing_and_spans(self):
        """The stream is span traffic only: one start and one end per span."""
        sink = ListEventSink()
        with obs.recording("t", event_sink=sink) as rec:
            with obs.span("a"):
                obs.counter.inc("n", 2)
        assert rec.root.find("a") is not None
        assert [(e["ev"], e["span"]) for e in sink.events] == [
            ("start", "a"), ("end", "a"),
        ]
        assert sink.events[0]["depth"] == 1
        assert sink.events[1]["counters"] == {"n": 2.0}
        assert sink.events[1]["status"] == "ok"
        assert sink.closed

    def test_jsonl_sink_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlEventSink(path, flush_every=1)
        with obs.recording("t", event_sink=sink):
            with obs.span("a"), obs.span("b"):
                pass
        events = read_events(path)
        assert type(events) is list
        assert [(e["ev"], e["span"]) for e in events] == [
            ("start", "a"), ("start", "b"), ("end", "b"), ("end", "a"),
        ]
        assert events[1]["depth"] == 2

    def test_truncated_final_line_is_tolerated(self, tmp_path):
        """A run killed mid-append leaves a readable prefix."""
        path = tmp_path / "events.jsonl"
        sink = JsonlEventSink(path, flush_every=1)
        with obs.recording("t", event_sink=sink):
            with obs.span("a"):
                pass
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"ev":"start","span":"torn","t_m')  # no newline, torn
        events = read_events(path)
        assert [(e["ev"], e["span"]) for e in events] == [
            ("start", "a"), ("end", "a"),
        ]

    def test_malformed_middle_line_raises(self, tmp_path):
        """Corruption (not a crash) must not be silently skipped."""
        path = tmp_path / "events.jsonl"
        path.write_text(
            '{"ev":"start","span":"a","t_ms":0}\n'
            "{not json}\n"
            '{"ev":"end","span":"a","t_ms":1}\n',
            encoding="utf-8",
        )
        with pytest.raises(json.JSONDecodeError):
            read_events(path)

    def test_trailing_blank_lines_after_torn_tail_ok(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(
            '{"ev":"start","span":"a","t_ms":0}\n{"ev":"en\n\n',
            encoding="utf-8",
        )
        events = read_events(path)
        assert [e["ev"] for e in events] == ["start"]


class TestConcurrentReaderWriter:
    """A reader racing the writer only ever sees shorter prefixes."""

    def test_read_events_mid_flush_sees_prefix(self, tmp_path):
        """read_events at every byte-boundary cut of a real stream."""
        path = tmp_path / "events.jsonl"
        sink = JsonlEventSink(path, flush_every=1)
        with obs.recording("t", event_sink=sink):
            with obs.span("a"):
                with obs.span("b"):
                    pass
        full = path.read_bytes()
        total = len(read_events(path))
        partial = tmp_path / "partial.jsonl"
        for cut in range(len(full) + 1):
            partial.write_bytes(full[:cut])
            events = read_events(partial)  # must never raise
            assert len(events) <= total


def _manifest_with(spans: dict[str, float], run_id: str) -> RunManifest:
    """A synthetic manifest whose root has one child per (name, wall_ms)."""
    root = SpanRecord(name="run", wall_ms=sum(spans.values()))
    for name, wall_ms in spans.items():
        root.children.append(SpanRecord(name=name, wall_ms=wall_ms))
    return RunManifest(run_id=run_id, label="run", config_name="small",
                       seeds={"topology.seed": 42}, git_sha=None,
                       argv=[], root=root)


class TestManifest:
    def test_round_trip(self, tmp_path):
        with obs.recording("demo") as rec:
            with obs.span("outer", size=3):
                obs.counter.inc("c", 2)
                obs.gauge.set("g", 1.5)
                with obs.span("inner"):
                    obs.counter.inc("c", 1)
        manifest = from_recorder(rec, run_id="rt-1", argv=["--small"])
        path = write_manifest(manifest, tmp_path)
        assert path.name == "run-rt-1.json"
        loaded = load_manifest(path)
        assert loaded.run_id == "rt-1"
        assert loaded.argv == ["--small"]
        assert loaded.counters() == {"c": 3.0}
        assert loaded.gauges() == {"g": 1.5}
        assert loaded.root.to_dict() == manifest.root.to_dict()

    def test_seeds_extraction_covers_nested_config(self):
        from repro.experiments.config import SMALL

        seeds = seeds_of(SMALL)
        assert seeds["deployment_seed"] == 101
        assert seeds["topology.seed"] == 42
        assert seeds["probes.seed"] == 7

    def test_run_ids_are_unique(self):
        assert new_run_id() != new_run_id()

    def test_tracing_writes_manifest_and_events(self, tmp_path):
        with tracing(tmp_path, label="tr", argv=["x"]) as rec:
            with obs.span("stage"):
                obs.counter.inc("n")
        assert rec.manifest_path is not None
        loaded = load_manifest(rec.manifest_path)
        assert loaded.label == "tr"
        assert loaded.root.find("stage") is not None
        events = list(tmp_path.glob("events-*.jsonl"))
        assert len(events) == 1
        assert read_events(events[0])
        assert obs.active() is None

    def test_trace_dir_holds_only_manifest_and_stream(self, tmp_path):
        """A traced parallel map leaves the manifest and the stream, nothing else."""
        from repro.par.pool import map_deterministic

        with tracing(tmp_path, label="tr") as rec, obs.span("stage"):
            absolute = map_deterministic(abs, [-1, -2, -3, -4], workers=2)
        assert absolute == [1, 2, 3, 4]
        assert rec is not None and rec.manifest_path is not None
        run_id = rec.manifest_path.name[len("run-"):-len(".json")]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"events-{run_id}.jsonl", f"run-{run_id}.json",
        ]
        lines = (tmp_path / f"events-{run_id}.jsonl").read_text(
            encoding="utf-8").splitlines()
        events = [json.loads(line) for line in lines]
        assert {e["ev"] for e in events} == {"start", "end"}
        assert "par.dispatch" in {e["span"] for e in events}

    def test_tracing_none_is_disabled(self):
        with tracing(None) as rec:
            assert rec is None
            assert obs.active() is None

    def test_load_rejects_non_manifest(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"no": "spans"}))
        with pytest.raises(ValueError):
            load_manifest(bad)


class TestReport:
    def test_aggregate_groups_by_path(self):
        root = SpanRecord(name="r", wall_ms=10.0)
        for wall in (2.0, 3.0):
            root.children.append(SpanRecord(name="x", wall_ms=wall))
        stats = aggregate_spans(root)
        assert stats["r/x"].calls == 2
        assert stats["r/x"].wall_ms == pytest.approx(5.0)
        assert stats["r"].self_ms == pytest.approx(5.0)

    def test_summary_mentions_spans_counters_and_seeds(self):
        manifest = _manifest_with({"alpha": 5.0}, "s-1")
        manifest.root.counters["hits"] = 4.0
        text = render_summary(manifest)
        assert "alpha" in text
        assert "hits" in text
        assert "topology.seed=42" in text

    def test_compare_deltas_and_counter_moves(self):
        a = _manifest_with({"x": 100.0, "y": 50.0}, "a")
        b = _manifest_with({"x": 200.0, "y": 50.0}, "b")
        a.root.counters["c"] = 1.0
        b.root.counters["c"] = 2.0
        deltas = compare_manifests(a, b)
        by_path = {d.path: d for d in deltas}
        assert by_path["run/x"].delta_ms == pytest.approx(100.0)
        assert by_path["run/x"].delta_pct == pytest.approx(100.0)
        assert by_path["run/y"].delta_ms == pytest.approx(0.0)
        assert counter_deltas(a, b) == {"c": (1.0, 2.0)}

    def test_counter_deltas_defaults_missing_to_zero(self):
        a = _manifest_with({"x": 1.0}, "a")
        b = _manifest_with({"x": 1.0}, "b")
        a.root.counters["only_base"] = 3.0
        b.root.counters["only_other"] = 7.0
        moved = counter_deltas(a, b)
        assert moved["only_base"] == (3.0, 0.0)
        assert moved["only_other"] == (0.0, 7.0)

    def test_counter_deltas_skips_unchanged(self):
        a = _manifest_with({"x": 1.0}, "a")
        b = _manifest_with({"x": 1.0}, "b")
        a.root.counters.update({"same": 5.0, "moved": 1.0})
        b.root.counters.update({"same": 5.0, "moved": 2.0})
        assert counter_deltas(a, b) == {"moved": (1.0, 2.0)}

    def test_counter_deltas_aggregates_over_subtree(self):
        a = _manifest_with({"x": 1.0}, "a")
        b = _manifest_with({"x": 1.0}, "b")
        a.root.children[0].counters["deep"] = 1.0
        b.root.children[0].counters["deep"] = 4.0
        b.root.counters["deep"] = 1.0  # adds to the subtree total
        assert counter_deltas(a, b) == {"deep": (1.0, 5.0)}

    def test_render_span_tree_folds_tiny_children(self):
        root = SpanRecord(name="r", wall_ms=100.0)
        root.children.append(SpanRecord(name="big", wall_ms=90.0))
        root.children.append(SpanRecord(name="dust", wall_ms=0.1))
        root.children.append(SpanRecord(name="mote", wall_ms=0.2))
        text = render_span_tree(root, min_wall_ms=0.5)
        assert "big" in text
        assert "dust" not in text and "mote" not in text
        assert "2 span(s) under 0.5 ms" in text

    def test_render_span_tree_truncates_depth(self):
        root = SpanRecord(name="d0", wall_ms=10.0)
        node = root
        for i in range(1, 5):
            child = SpanRecord(name=f"d{i}", wall_ms=10.0)
            node.children.append(child)
            node = child
        text = render_span_tree(root, max_depth=2, min_wall_ms=0.0)
        assert "d2" in text
        assert "d3" not in text
        assert "child span(s)" in text


class TestDashboard:
    def _manifest(self) -> RunManifest:
        manifest = _manifest_with({"alpha": 80.0, "beta": 20.0}, "dash-1")
        manifest.root.children[0].gauges["health.claims.passed"] = 18.0
        manifest.root.children[0].gauges["health.claims.total"] = 18.0
        manifest.root.children[0].gauges["health.routing.cache_hit_rate"] = 0.9
        return manifest

    def test_sections_cover_every_lens(self):
        sections = dashboard_sections(self._manifest())
        titles = [title for title, _ in sections]
        assert titles[0] == "run"
        assert any("hotspots" in t for t in titles)
        assert any(t == "span tree" for t in titles)
        assert any("profiler" in t for t in titles)
        assert any("health" in t for t in titles)

    def test_terminal_dashboard_mentions_health_and_spans(self):
        text = render_dashboard(self._manifest())
        assert "alpha" in text
        assert "claims    18/18 hold  [ok]" in text
        assert "cache hit rate 90.0%" in text
        assert "not profiled" in text  # no profile embedded

    def test_trend_section_appears_with_history(self, tmp_path):
        from repro.obs.trend import append_record, record_from_manifest

        append_record(tmp_path, record_from_manifest(self._manifest()))
        text = render_dashboard(self._manifest(), history_dir=tmp_path)
        assert f"trend ({tmp_path})" in text

    def test_html_page_is_escaped_and_self_contained(self):
        manifest = self._manifest()
        manifest.root.children[0].attrs["note"] = "<script>alert(1)</script>"
        page = render_dashboard_html(manifest)
        assert page.startswith("<!doctype html>")
        assert "<script>alert(1)" not in page
        assert "run dash-1" in page
        assert page.count("<pre>") == page.count("</pre>") >= 4

    def test_cli_dashboard_writes_html(self, tmp_path, capsys):
        path = write_manifest(self._manifest(), tmp_path)
        out_html = tmp_path / "dash.html"
        assert cli.main(
            ["obs", "dashboard", str(path), "--html", str(out_html)]
        ) == 0
        out = capsys.readouterr().out
        assert "span hotspots" in out
        assert out_html.exists()
        assert "run dash-1" in out_html.read_text(encoding="utf-8")

    def test_cli_dashboard_rejects_missing_manifest(self, tmp_path):
        assert cli.main(
            ["obs", "dashboard", str(tmp_path / "nope.json")]
        ) == 2


#: Manifests whose span tree is malformed: every ``obs`` command that
#: loads one must exit 2 with a message, not a traceback.
MALFORMED_MANIFESTS = [
    pytest.param({"spans": {}}, id="nameless-span"),
    pytest.param({"spans": {"name": "run", "children": [1]}},
                 id="non-object-child"),
    pytest.param({"spans": {"name": "run", "wall_ms": [1]}},
                 id="list-valued-field"),
]


class TestObsCli:
    def test_summary_exit_codes(self, tmp_path, capsys):
        manifest = _manifest_with({"alpha": 5.0}, "cli-1")
        path = write_manifest(manifest, tmp_path)
        assert cli.main(["obs", "summary", str(path)]) == 0
        assert "alpha" in capsys.readouterr().out
        assert cli.main(["obs", "summary", str(tmp_path / "missing.json")]) == 2

    def test_compare_reports_and_exits_zero(self, tmp_path, capsys):
        """compare is a report: a 2.5x slower span still exits 0."""
        base = write_manifest(
            _manifest_with({"slow": 100.0, "steady": 80.0}, "base"), tmp_path)
        inflated = write_manifest(
            _manifest_with({"slow": 250.0, "steady": 80.0}, "inflated"),
            tmp_path)

        assert cli.main(["obs", "compare", str(base), str(inflated)]) == 0
        out = capsys.readouterr().out
        assert "run/slow" in out and "+150.0%" in out
        assert "REGRESSION" not in out
        # The gate flags went with the gate (argparse exits 2).
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["obs", "compare", str(base), str(inflated),
                      "--fail-over", "20"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("body", MALFORMED_MANIFESTS)
    @pytest.mark.parametrize(
        "command", ["summary", "compare", "dashboard"])
    def test_malformed_manifest_fails_with_message(
        self, tmp_path, capsys, command, body
    ):
        bad = tmp_path / "run-bad.json"
        bad.write_text(json.dumps(body), encoding="utf-8")
        argv = ["obs", command, str(bad)]
        if command == "compare":
            argv.append(str(bad))
        assert cli.main(argv) == 2
        assert "cannot read manifest" in capsys.readouterr().err

    @pytest.mark.parametrize("body", MALFORMED_MANIFESTS)
    def test_malformed_manifest_is_not_ingested(self, tmp_path, capsys, body):
        bad = tmp_path / "run-bad.json"
        bad.write_text(json.dumps(body), encoding="utf-8")
        history = tmp_path / "history"
        assert cli.main(
            ["obs", "ingest", str(bad), "--history", str(history)]) == 2
        assert "cannot ingest" in capsys.readouterr().err
        assert not history.exists()

    @pytest.mark.parametrize("command", ["summary", "dashboard"])
    def test_event_stream_is_not_a_manifest(self, tmp_path, capsys, command):
        with tracing(tmp_path, label="tr"), obs.span("stage"):
            pass
        (stream,) = tmp_path.glob("events-*.jsonl")
        assert cli.main(["obs", command, str(stream)]) == 2
        assert "cannot read manifest" in capsys.readouterr().err

    def test_manifest_with_retired_memory_payload_still_reads(
        self, tmp_path, capsys
    ):
        """Manifests written while ``--memory`` existed carry a ``"memory"``
        key (allocation profile + structure census); they stay readable."""
        data = _manifest_with({"world.build": 40.0}, "legacy-1").to_dict()
        data["memory"] = {
            "schema": 1,
            "profile": {"root_label": "repro-world", "total_net_bytes": 4096,
                        "total_peak_bytes": 8192,
                        "paths": {"repro-world/world.build": {
                            "net_bytes": 4096, "peak_bytes": 8192,
                            "slices": 2}},
                        "top_sites": []},
            "census": [{"name": "routing", "kind": "aggregate",
                        "bytes": 1024, "objects": 12,
                        "units": {"bytes_per_route": 37.0}}],
        }
        path = tmp_path / "run-legacy-1.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        loaded = load_manifest(path)
        assert loaded.root.find("world.build") is not None
        assert "memory" not in loaded.to_dict()
        assert cli.main(["obs", "summary", str(path)]) == 0
        assert cli.main(["obs", "dashboard", str(path)]) == 0
        assert "--memory" not in capsys.readouterr().out
        history = tmp_path / "history"
        assert cli.main(
            ["obs", "ingest", str(path), "--history", str(history)]) == 0

    def test_compare_rejects_unreadable_files(self, tmp_path):
        assert cli.main(
            ["obs", "compare", str(tmp_path / "a.json"), str(tmp_path / "b.json")]
        ) == 2
