"""Tests for repro.obs.memory: allocation profiler + size census.

The profiler tests pin the telescoping property the module is specified
by — per-span-path net bytes summing *exactly* to the capture total,
residual included — plus lifecycle edges (idempotent stop, piggybacking
on an existing tracemalloc session).  The census tests pin the
visited-set semantics of ``deep_sizeof`` (shared substructures counted
once) and the per-unit headline numbers of the routing-table rows.
"""

from __future__ import annotations

import array
import sys
import tracemalloc

import pytest

from repro import obs
from repro.obs.manifest import load_manifest, tracing
from repro.obs.memory import (
    CensusRow,
    MemoryProfile,
    MemoryProfiler,
    SiteStat,
    _fold_sites,
    census_object,
    census_routing_table,
    deep_sizeof,
    memory_payload,
    memory_trend_series,
    render_census,
    render_memory_profile,
    render_memory_section,
    staged_footprint_bytes,
    world_census,
)


@pytest.fixture(autouse=True)
def _no_leftover_recorder():
    obs.uninstall()
    yield
    obs.uninstall()
    if tracemalloc.is_tracing():  # never leak a trace into other tests
        tracemalloc.stop()


class TestMemoryProfiler:
    def test_paths_reconcile_exactly(self):
        profiler = MemoryProfiler("t")
        keep = []
        with obs.recording("t", memory=profiler):
            with obs.span("alloc"):
                keep.append(bytearray(256 * 1024))
            with obs.span("quiet"):
                pass
            keep.append(bytearray(64 * 1024))  # enclosing-frame residual
        profile = profiler.snapshot()
        attributed, total = profile.reconcile()
        assert attributed == total  # exact, by construction
        assert "t/alloc" in profile.paths
        assert "t" in profile.paths  # the residual root path
        assert profile.paths["t/alloc"].net_bytes >= 256 * 1024
        assert profile.paths["t"].net_bytes >= 64 * 1024

    def test_negative_net_for_releasing_span(self):
        profiler = MemoryProfiler("t")
        with obs.recording("t", memory=profiler):
            # allocated in the enclosing frame (root slice), released
            # inside the span: the span's net attribution is negative
            keep = [bytearray(512 * 1024)]
            with obs.span("release"):
                keep.clear()
        profile = profiler.snapshot()
        assert profile.paths["t/release"].net_bytes < 0
        attributed, total = profile.reconcile()
        assert attributed == total

    def test_nested_spans_attribute_to_innermost(self):
        profiler = MemoryProfiler("t")
        keep = []
        with obs.recording("t", memory=profiler):
            with obs.span("outer"):
                with obs.span("inner"):
                    keep.append(bytearray(128 * 1024))
        profile = profiler.snapshot()
        assert profile.paths["t/outer/inner"].net_bytes >= 128 * 1024

    def test_slice_peaks_catch_transients(self):
        profiler = MemoryProfiler("t")
        with obs.recording("t", memory=profiler):
            with obs.span("transient"):
                bytearray(1024 * 1024)  # allocated and dropped in-slice
        profile = profiler.snapshot()
        stat = profile.paths["t/transient"]
        assert stat.peak_bytes >= 1024 * 1024
        assert stat.net_bytes < 1024 * 1024
        assert profile.total_peak_bytes >= 1024 * 1024

    def test_stop_is_idempotent_and_ends_owned_trace(self):
        assert not tracemalloc.is_tracing()
        profiler = MemoryProfiler("t")
        profiler.start()
        assert tracemalloc.is_tracing()
        profiler.stop()
        profiler.stop()
        assert not tracemalloc.is_tracing()

    def test_piggybacks_on_existing_trace(self):
        tracemalloc.start()
        try:
            profiler = MemoryProfiler("t")
            profiler.start()
            profiler.stop()
            assert tracemalloc.is_tracing()  # not ours to stop
        finally:
            tracemalloc.stop()

    def test_crash_unwind_does_not_leak_paths(self):
        profiler = MemoryProfiler("t")
        profiler.start()
        profiler.span_push("a")
        profiler.span_push("b")
        profiler.stop()
        profiler.start()
        profiler.span_push("c")
        profiler.stop()
        assert "t/c" in profiler.snapshot().paths

    def test_top_sites_fold_preserves_totals(self):
        rows = [
            SiteStat(file=f"mod{i}.py", line=i, size_bytes=1000 * (5 - i),
                     count=i + 1)
            for i in range(5)
        ]
        folded = _fold_sites(rows, 2)
        assert len(folded) == 3
        assert folded[-1].file == "<other>"
        assert (sum(r.size_bytes for r in folded)
                == sum(r.size_bytes for r in rows))
        assert sum(r.count for r in folded) == sum(r.count for r in rows)
        assert folded[0].size_bytes >= folded[1].size_bytes
        # no fold needed -> rows pass through ranked, nothing added
        assert len(_fold_sites(rows, 0)) == 5
        assert len(_fold_sites(rows, 5)) == 5

    def test_top_sites_come_from_live_trace(self):
        profiler = MemoryProfiler("t", top_sites=3)
        profiler.start()
        keep = [bytearray(64 * 1024)]  # noqa: F841
        profiler.stop()
        sites = profiler.snapshot().top_sites
        assert sites, "an owned trace must yield a site table"
        assert len(sites) <= 4  # 3 kept + at most one <other> fold
        assert any(s.size_bytes >= 64 * 1024 for s in sites)

    def test_profile_roundtrips_through_dict(self):
        profiler = MemoryProfiler("t")
        with obs.recording("t", memory=profiler):
            with obs.span("work"):
                bytearray(64 * 1024)
        profile = profiler.snapshot()
        clone = MemoryProfile.from_dict(profile.to_dict())
        assert clone.root_label == profile.root_label
        assert clone.total_net_bytes == profile.total_net_bytes
        assert clone.total_peak_bytes == profile.total_peak_bytes
        assert clone.paths == profile.paths
        assert clone.top_sites == profile.top_sites


class _Slotted:
    __slots__ = ("first", "second")

    def __init__(self, first, second):
        self.first = first
        self.second = second


class TestDeepSizeof:
    def test_leaves_and_containers(self):
        data = {"key": "value", "nums": [1000, 2000.5]}
        size, objects = deep_sizeof(data)
        assert size > sys.getsizeof(data)
        assert objects >= 6  # dict, 2 keys, str, list, int, float

    def test_skips_interpreter_singletons(self):
        assert deep_sizeof(None) == (0, 0)
        assert deep_sizeof(True) == (0, 0)
        assert deep_sizeof(7) == (0, 0)  # small-int singleton
        big = 10**6
        assert deep_sizeof(big) == (sys.getsizeof(big), 1)

    def test_shared_substructure_counted_once(self):
        shared = "x" * 10_000
        pair = [shared, shared]
        size, objects = deep_sizeof(pair)
        assert size < sys.getsizeof(pair) + 2 * sys.getsizeof(shared)
        lone, _ = deep_sizeof([shared])
        assert size == lone + sys.getsizeof(pair) - sys.getsizeof([shared])

    def test_shared_seen_set_spans_walks(self):
        shared = "y" * 10_000
        seen: set[int] = set()
        first, _ = deep_sizeof([shared], seen=seen)
        second, _ = deep_sizeof([shared], seen=seen)
        # The second walk sees the string already visited and only pays
        # for its own fresh list shell.
        assert first >= sys.getsizeof(shared)
        assert second == sys.getsizeof([shared])

    def test_cycles_terminate(self):
        node: list = []
        node.append(node)
        size, objects = deep_sizeof(node)
        assert objects == 1
        assert size == sys.getsizeof(node)

    def test_slots_descended(self):
        payload = "z" * 4096
        obj = _Slotted(payload, [payload])
        size, _objects = deep_sizeof(obj)
        assert size >= sys.getsizeof(obj) + sys.getsizeof(payload)
        # the shared payload is counted once even via two slots
        assert size < (sys.getsizeof(obj) + 2 * sys.getsizeof(payload)
                       + sys.getsizeof([payload]))

    def test_array_is_a_buffer_leaf(self):
        arr = array.array("q", range(1024))
        size, objects = deep_sizeof(arr)
        assert objects == 1
        assert size == sys.getsizeof(arr)
        assert size >= 1024 * 8

    def test_boundary_types_excluded(self):
        assert deep_sizeof(sys) == (0, 0)
        assert deep_sizeof(deep_sizeof) == (0, 0)
        assert deep_sizeof(int) == (0, 0)


class _FakeChoice:
    def __init__(self, routes):
        self.routes = routes


class _FakeTable:
    def __init__(self, best):
        self.best = best

    def num_routes(self):
        return sum(len(choice.routes) for choice in self.best.values())


class TestCensus:
    def test_census_object_row(self):
        row = census_object("thing", "List", [1000, 2000], items=2.0)
        assert row.name == "thing" and row.kind == "List"
        assert row.bytes > 0 and row.objects >= 3
        assert row.units == {"items": 2.0}

    def test_routing_table_per_unit_numbers(self):
        table = _FakeTable({
            1: _FakeChoice(["r1", "r2"]),
            2: _FakeChoice(["r3"]),
        })
        row = census_routing_table("routing_table[p]", table)
        assert row.kind == "RoutingTable"
        assert row.units["routes"] == 3.0
        assert row.units["ases"] == 2.0
        assert row.units["bytes_per_route"] == pytest.approx(row.bytes / 3)
        assert row.units["bytes_per_as"] == pytest.approx(row.bytes / 2)

    def test_census_row_roundtrip(self):
        row = CensusRow(name="n", kind="K", bytes=10, objects=2,
                        units={"routes": 1.0})
        clone = CensusRow.from_dict(row.to_dict())
        assert clone == row

    def test_world_census_covers_every_announcement(self, small_world):
        rows = world_census(small_world)
        names = [row.name for row in rows]
        assert names[0] == "topology"
        announcements = small_world.registry.announcements()
        for announcement in announcements:
            assert f"routing_table[{announcement.prefix}]" in names
            assert f"catchment[{announcement.prefix}]" in names
        assert "routing_tables[all]" in names
        agg = rows[names.index("routing_tables[all]")]
        assert agg.units["tables"] == float(len(announcements))
        assert agg.units["bytes_per_route"] > 0
        assert agg.units["bytes_per_as"] > 0
        per_table = [
            row.bytes for row in rows
            if row.name.startswith("routing_table[")
        ]
        assert agg.bytes == sum(per_table)
        assert names[1] == "flat_adjacency"

    def test_world_census_counts_the_exit_memo(self, monkeypatch):
        """The forwarding walks' exit memo shows in the census: it grows
        on a first ping_all and stays put when the same walks repeat
        under a new salt.  A fresh world keeps the session world's memo
        out of the count; serial because fleet workers fill their own
        copy-on-write copies."""
        from repro.experiments.config import SMALL
        from repro.experiments.world import World

        monkeypatch.setenv("REPRO_WORKERS", "1")
        world = World(SMALL)

        def adjacency_row():
            rows = {row.name: row for row in world_census(world)}
            return rows["flat_adjacency"]

        before = adjacency_row()
        assert before.kind == "FlatAdjacency"
        assert before.units["nodes"] == float(world.topology.num_nodes)
        addr = world.imperva.ns.address
        world.ping_all(addr)
        grown = adjacency_row()
        assert grown.units["entries"] > before.units["entries"]
        assert grown.bytes > before.bytes
        world.ping_all(addr, salt="again")
        assert adjacency_row().units["entries"] == grown.units["entries"]

    def test_staged_footprint_memoized_per_version(self):
        class Staged:  # weak-referenceable, like Topology
            def __init__(self):
                self.items = [1000 + i for i in range(50)]

        obj = Staged()
        first = staged_footprint_bytes(obj, 1)
        assert staged_footprint_bytes(obj, 1) == first
        obj.items.extend(2000 + i for i in range(500))
        # same version -> memo hit, growth invisible by design
        assert staged_footprint_bytes(obj, 1) == first
        assert staged_footprint_bytes(obj, 2) > first


class TestPayloadAndRendering:
    def _profile(self) -> MemoryProfile:
        profiler = MemoryProfiler("t")
        with obs.recording("t", memory=profiler):
            with obs.span("work"):
                bytearray(128 * 1024)
        return profiler.snapshot()

    def test_payload_shape(self):
        rows = [CensusRow(name="n", kind="K", bytes=1, objects=1)]
        payload = memory_payload(self._profile(), rows)
        assert payload["schema"] == 1
        assert isinstance(payload["profile"], dict)
        assert isinstance(payload["census"], list)
        assert memory_payload(None) == {"schema": 1}

    def test_render_section_smoke(self):
        payload = memory_payload(
            self._profile(),
            [CensusRow(name="n", kind="K", bytes=2048, objects=3,
                       units={"routes": 2.0, "bytes_per_route": 1024.0})],
        )
        text = render_memory_section(payload)
        assert "allocation by span path" in text
        assert "structure census" in text
        assert "bytes_per_route=1,024.0" in text
        assert "<enclosing frame>" in text

    def test_render_handles_empty_payload(self):
        assert "no memory data" in render_memory_section({"schema": 1})

    def test_render_profile_marks_residual(self):
        text = render_memory_profile(self._profile())
        assert "t <enclosing frame>" in text

    def test_render_census_smoke(self):
        text = render_census(
            [CensusRow(name="n", kind="K", bytes=4096, objects=7)]
        )
        assert "n" in text and "4.0" in text

    def test_trend_series(self):
        rows = [
            CensusRow(name="topology", kind="T", bytes=2048, objects=1),
            CensusRow(name="routing_table[p1]", kind="R", bytes=1024,
                      objects=1),
            CensusRow(name="routing_tables[all]", kind="R", bytes=1024,
                      objects=0,
                      units={"bytes_per_route": 10.0, "bytes_per_as": 20.0}),
        ]
        series = memory_trend_series(memory_payload(self._profile(), rows))
        assert series["mem.traced_net_kib"] > 0
        assert series["mem.traced_peak_kib"] > 0
        assert series["mem.census.topology_kib"] == 2.0
        assert series["mem.census.routing_tables[all]_kib"] == 1.0
        assert "mem.census.routing_table[p1]_kib" not in series
        assert series["mem.bytes_per_route"] == 10.0
        assert series["mem.bytes_per_as"] == 20.0


class TestManifestIntegration:
    def test_tracing_embeds_memory_payload(self, tmp_path):
        profiler = MemoryProfiler("t")
        with tracing(str(tmp_path), label="t",
                     memory=profiler) as recorder:
            with obs.span("work"):
                bytearray(64 * 1024)
            recorder.memory_census = [
                CensusRow(name="n", kind="K", bytes=1, objects=1).to_dict()
            ]
        manifest = load_manifest(str(recorder.manifest_path))
        assert manifest.memory is not None
        assert manifest.memory["schema"] == 1
        profile = MemoryProfile.from_dict(manifest.memory["profile"])
        attributed, total = profile.reconcile()
        assert attributed == total
        assert "t/work" in profile.paths
        assert manifest.memory["census"][0]["name"] == "n"

    def test_memory_alone_forces_recording(self, tmp_path):
        # like a profiler, a memory profiler makes tracing() record even
        # without a trace dir
        with tracing(None, label="t",
                     memory=MemoryProfiler("t")) as recorder:
            assert recorder is not None
        with tracing(None, label="t") as recorder:
            assert recorder is None
