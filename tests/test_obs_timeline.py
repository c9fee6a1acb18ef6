"""Tests for repro.obs.timeline: Gantt reconstruction + attribution.

Two tiers: a hand-built span tree with exactly known phase and chunk
timings (so every attribution bucket is assertable to the millisecond),
and an integration pass that records a real ``compute_fanout`` under
REPRO_WORKERS=2 and checks the reconstructed region against it.
"""

from __future__ import annotations

import json

import pytest

from repro import cli, obs
from repro.netaddr.ipv4 import IPv4Prefix
from repro.obs.manifest import RunManifest, from_recorder
from repro.obs.timeline import (
    BUCKETS,
    CHUNK_SPAN,
    PHASE_DISPATCH,
    PHASE_FORK,
    PHASE_MERGE,
    PHASE_STAGE,
    build_timeline,
    render_timeline,
    timeline_to_dict,
)
from repro.par.routing import compute_fanout
from repro.routing.route import Announcement, OriginSpec
from repro.topology.asys import Tier


def _chunk(pid: int, index: int, t0: float, t1: float) -> obs.SpanRecord:
    return obs.SpanRecord(
        name=CHUNK_SPAN,
        attrs={
            "worker_pid": pid,
            "chunk_index": index,
            "t0_ms": t0,
            "t1_ms": t1,
        },
        wall_ms=t1 - t0,
    )


def _synthetic_manifest() -> RunManifest:
    """One region: stage 5, fork 2, dispatch 100, merge 3 ms.

    Two workers — pid 11 busy 90 ms (one chunk), pid 22 busy 60 ms
    (two chunks) — so compute=60, imbalance=30, dispatch residual=10.
    """
    region = obs.SpanRecord(
        name="world.routing",
        wall_ms=110.0,
        children=[
            obs.SpanRecord(name=PHASE_STAGE, wall_ms=5.0),
            obs.SpanRecord(name=PHASE_FORK, wall_ms=2.0,
                           attrs={"workers": 2}),
            obs.SpanRecord(
                name=PHASE_DISPATCH,
                wall_ms=100.0,
                attrs={"workers": 2, "tasks": 3},
                children=[],
            ),
            obs.SpanRecord(
                name=PHASE_MERGE,
                wall_ms=3.0,
                children=[
                    _chunk(11, 0, 10.0, 100.0),
                    _chunk(22, 1, 10.0, 40.0),
                    _chunk(22, 2, 40.0, 70.0),
                ],
            ),
        ],
    )
    root = obs.SpanRecord(name="test-run", wall_ms=200.0, children=[region])
    return RunManifest(
        run_id="r-test",
        label="test",
        config_name="SMALL",
        seeds={},
        git_sha=None,
        argv=[],
        root=root,
    )


class TestSyntheticTimeline:
    def test_region_and_lane_reconstruction(self):
        timeline = build_timeline(_synthetic_manifest())
        assert len(timeline.regions) == 1
        region = timeline.regions[0]
        assert region.path == "test-run/world.routing"
        assert region.workers == 2
        assert region.phase_ms[PHASE_DISPATCH] == 100.0
        assert region.elapsed_ms == pytest.approx(110.0)
        # Lanes rank by first chunk start, tie broken by pid.
        assert [lane.pid for lane in region.lanes] == [11, 22]
        assert [len(lane.chunks) for lane in region.lanes] == [1, 2]
        assert region.lanes[0].busy_ms == pytest.approx(90.0)
        assert region.lanes[1].busy_ms == pytest.approx(60.0)

    def test_attribution_partitions_elapsed_exactly(self):
        region = build_timeline(_synthetic_manifest()).regions[0]
        attribution = region.attribution()
        assert attribution == {
            "stage": 5.0,
            "fork": 2.0,
            "compute": 60.0,
            "imbalance": 30.0,
            "dispatch": 10.0,
            "merge": 3.0,
            "other": 0.0,
        }
        assert sum(attribution.values()) == pytest.approx(region.elapsed_ms)

    def test_busy_overrun_is_clamped_not_negative(self):
        """Worker clocks beyond the dispatch window must not go negative."""
        manifest = _synthetic_manifest()
        dispatch = manifest.root.children[0].children[2]
        dispatch.wall_ms = 50.0  # window shorter than both busy times
        attribution = build_timeline(manifest).regions[0].attribution()
        assert attribution["compute"] == pytest.approx(50.0)
        assert attribution["imbalance"] == 0.0
        assert attribution["dispatch"] == 0.0
        assert all(ms >= 0.0 for ms in attribution.values())

    def test_idle_configured_worker_counts_as_imbalance(self):
        manifest = _synthetic_manifest()
        dispatch = manifest.root.children[0].children[2]
        dispatch.attrs["workers"] = 3  # one worker never got a chunk
        attribution = build_timeline(manifest).regions[0].attribution()
        assert attribution["compute"] == 0.0
        assert attribution["imbalance"] == pytest.approx(90.0)

    def test_render_covers_all_buckets_and_lanes(self):
        timeline = build_timeline(_synthetic_manifest())
        text = render_timeline(timeline, width=32)
        for bucket in BUCKETS:
            assert bucket in text
        assert "w0 |" in text and "w1 |" in text
        assert "attributed 100.0%" in text

    def test_serial_run_renders_explanation(self):
        manifest = _synthetic_manifest()
        manifest.root.children.clear()
        text = render_timeline(build_timeline(manifest))
        assert "no parallel regions" in text

    def test_to_dict_round_trips_through_json(self):
        data = timeline_to_dict(build_timeline(_synthetic_manifest()))
        again = json.loads(json.dumps(data))
        assert again["schema"] == 2
        region = again["regions"][0]
        assert region["workers"] == 2
        assert region["attribution_ms"]["compute"] == 60.0
        assert [c["chunk_index"] for lane in region["lanes"]
                for c in lane["chunks"]] == [0, 1, 2]


class TestRecordedTimeline:
    def _announcements(self, topology, count=4):
        stubs = [n.node_id for n in topology.nodes() if n.tier is Tier.STUB]
        return [
            Announcement(
                prefix=IPv4Prefix.parse(f"198.18.{i}.0/24"),
                origins=(OriginSpec(site_node=stub),),
            )
            for i, stub in enumerate(stubs[:count])
        ]

    def test_fanout_produces_one_attributable_region(self, tiny_topology):
        announcements = self._announcements(tiny_topology)
        obs.uninstall()
        with obs.recording("timeline-test") as recorder:
            with obs.span("world.routing"):
                compute_fanout(tiny_topology, announcements, workers=2)
        timeline = build_timeline(from_recorder(recorder))
        assert len(timeline.regions) == 1
        region = timeline.regions[0]
        assert region.workers == 2
        assert region.phase_ms[PHASE_STAGE] > 0.0
        assert region.phase_ms[PHASE_DISPATCH] > 0.0
        chunks = [c for lane in region.lanes for c in lane.chunks]
        assert sorted(c.chunk_index for c in chunks) == [0, 1, 2, 3]
        # Chunk windows sit inside the recording and carry worker spans.
        for chunk in chunks:
            assert 0.0 <= chunk.t0_ms <= chunk.t1_ms
            assert chunk.spans >= 1
        attribution = region.attribution()
        assert sum(attribution.values()) == pytest.approx(region.elapsed_ms)
        assert attribution["compute"] + attribution["imbalance"] > 0.0

    def test_cli_timeline_renders_and_writes_json(
        self, tiny_topology, tmp_path, capsys
    ):
        announcements = self._announcements(tiny_topology)
        obs.uninstall()
        with obs.recording("timeline-cli") as recorder:
            compute_fanout(tiny_topology, announcements, workers=2)
        manifest_path = tmp_path / "run-test.json"
        manifest_path.write_text(
            json.dumps(from_recorder(recorder).to_dict()), encoding="utf-8"
        )
        out_json = tmp_path / "timeline.json"
        assert cli.main([
            "obs", "timeline", str(manifest_path), "--json", str(out_json),
        ]) == 0
        out = capsys.readouterr().out
        assert "attributed 100.0%" in out
        data = json.loads(out_json.read_text(encoding="utf-8"))
        assert data["regions"][0]["workers"] == 2
