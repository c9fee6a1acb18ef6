"""Tests for repro.par: deterministic parallelism + the persistent cache.

The package's one contract — parallel execution must be invisible in the
results — is checked directly: every parallel path is compared against
its serial twin for byte-level equality, and the on-disk cache is
round-tripped, corrupted, and invalidated on purpose.
"""

import struct

import pytest
from hypothesis import given, strategies as st

from repro import obs
from repro.netaddr.ipv4 import IPv4Prefix
from repro.par.cache import (
    CACHE_DIR_ENV,
    FORMAT_VERSION,
    MAGIC,
    CacheCorruption,
    RoutingTableCache,
    announcement_key,
    clear_default_cache,
    decode_table,
    default_cache_dir,
    encode_table,
    engine_fingerprint,
    resolve_cache,
    set_default_cache,
    tables_digest,
    topology_hash,
)
from repro.par.obsbuf import finish_capture, merge_payload, start_capture
from repro.par.pool import (
    WORKERS_ENV,
    capture_blocks_parallel,
    map_deterministic,
    reset_worker_capture,
    worker_count,
)
from repro.par.routing import compute_fanout
from repro.routing.engine import RoutingEngine
from repro.routing.route import Announcement, OriginSpec
from repro.routing.table import RoutingTable
from repro.topology.asys import LinkKind, Tier
from tests.test_routing import Net


def _square(x):
    """Module-level so it pickles into worker processes."""
    return x * x


def _explode(x):
    """Module-level crasher: raises on one input, squares the rest."""
    if x == 3:
        raise ValueError("boom")
    return x * x


def _no_build(*args, **kwargs):
    raise AssertionError("a misconfigured run built a world")


def _stub_announcements(topology, count=3):
    """One single-origin announcement per stub, distinct prefixes."""
    stubs = [n.node_id for n in topology.nodes() if n.tier is Tier.STUB]
    return [
        Announcement(
            prefix=IPv4Prefix.parse(f"198.18.{i}.0/24"),
            origins=(OriginSpec(site_node=stub),),
        )
        for i, stub in enumerate(stubs[:count])
    ]


class TestWorkerCount:
    def test_unset_means_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert worker_count() == 1

    def test_env_parsed(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "4")
        assert worker_count() == 4

    @pytest.mark.parametrize("raw", ["", "  ", "0", "1"])
    def test_degenerate_values_mean_serial(self, monkeypatch, raw):
        monkeypatch.setenv(WORKERS_ENV, raw)
        assert worker_count() == 1

    @pytest.mark.parametrize("raw", ["abc", "-3", "2.5"])
    def test_malformed_values_rejected(self, monkeypatch, raw):
        monkeypatch.setenv(WORKERS_ENV, raw)
        with pytest.raises(ValueError, match=WORKERS_ENV):
            worker_count()

    def test_cli_refuses_malformed_value_before_building(
            self, monkeypatch, capsys):
        import repro.cli as cli

        monkeypatch.setattr(cli, "World", _no_build)
        monkeypatch.setenv(WORKERS_ENV, "2.5")
        assert cli.main(["digest", "--small"]) == 2
        assert WORKERS_ENV in capsys.readouterr().err

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "8")
        assert worker_count(2) == 2
        assert worker_count(0) == 1


class TestMapDeterministic:
    def test_serial_path_is_plain_map(self):
        assert map_deterministic(_square, range(7), workers=1) == [
            x * x for x in range(7)
        ]

    def test_parallel_matches_serial_order(self):
        items = list(range(37))
        expected = [x * x for x in items]
        assert map_deterministic(_square, items, workers=2) == expected

    def test_empty_input(self):
        assert map_deterministic(_square, [], workers=4) == []


class TestCaptureBlocksParallel:
    def test_plain_recorder_does_not_block(self):
        recorder = obs.Recorder("plain")
        obs.install(recorder)
        try:
            assert capture_blocks_parallel() is False
        finally:
            obs.uninstall()

    def test_profiler_blocks(self):
        from repro.obs.prof import SpanProfiler

        recorder = obs.Recorder("prof", profiler=SpanProfiler("prof"))
        obs.install(recorder)
        try:
            assert capture_blocks_parallel() is True
        finally:
            obs.uninstall()

    def test_provenance_blocks(self):
        from repro.explain import provenance

        provenance.install(provenance.ProvenanceRecorder())
        try:
            assert capture_blocks_parallel() is True
        finally:
            provenance.install(None)

class TestWorkerCaptureReset:
    def test_reset_clears_recorder_provenance_and_trace(self):
        from repro.explain import provenance

        obs.install(obs.Recorder("parent"))
        provenance.install(provenance.ProvenanceRecorder())
        try:
            reset_worker_capture()
            assert obs.active() is None
            assert provenance.active() is None
        finally:
            obs.install(None)
            provenance.install(None)


class TestObsBuffers:
    def test_disabled_capture_is_free(self):
        assert start_capture(False) is None
        assert finish_capture(None) is None
        merge_payload(None)  # no-op without a recorder either

    def test_capture_and_merge_in_order(self):
        worker = start_capture(True)
        try:
            with obs.span("routing.compute"):
                pass
            obs.counter.inc("routing.routes_pushed", 5)
            obs.gauge.set("routing.routed_nodes", 12)
        finally:
            payload = finish_capture(worker)
        assert [s["name"] for s in payload["spans"]] == ["routing.compute"]
        meta = payload["meta"]
        assert meta["wall_ms"] > 0.0
        assert meta["cpu_ms"] >= 0.0
        parent = obs.Recorder("parent")
        obs.install(parent)
        try:
            with obs.span("world.routing"):
                merge_payload(payload)
                merge_payload(payload)
        finally:
            obs.uninstall()
        merged = parent.root.children[0]
        assert merged.name == "world.routing"
        # Each payload becomes one par.chunk wrapper timed by the capture
        # window; the worker's spans are the wrapper's children and its
        # counters/gauges land on the wrapper (subtree totals match
        # replaying them on the parent).
        assert [c.name for c in merged.children] == ["par.chunk", "par.chunk"]
        for chunk in merged.children:
            assert chunk.wall_ms == meta["wall_ms"]
            assert chunk.cpu_ms == meta["cpu_ms"]
            assert [c.name for c in chunk.children] == ["routing.compute"]
            assert chunk.counters["routing.routes_pushed"] == 5
            assert chunk.gauges["routing.routed_nodes"] == 12
        assert merged.subtree_counters()["routing.routes_pushed"] == 10

    def test_zero_span_worker_still_merges_a_chunk(self):
        """A worker that opened no spans still gets its wrapper span."""
        worker = start_capture(True)
        payload = finish_capture(worker)
        assert payload["spans"] == []
        assert payload["counters"] == {}
        parent = obs.Recorder("parent")
        obs.install(parent)
        try:
            with obs.span("world.routing"):
                merge_payload(payload)
        finally:
            obs.uninstall()
        merged = parent.root.children[0]
        assert [c.name for c in merged.children] == ["par.chunk"]
        chunk = merged.children[0]
        assert chunk.children == []
        assert chunk.counters == {}
        assert chunk.wall_ms == payload["meta"]["wall_ms"]

    def test_zero_span_worker_still_reports_memory(self):
        """Peak RSS is process truth: reported even with zero spans."""
        worker = start_capture(True)
        payload = finish_capture(worker)
        assert payload["spans"] == []
        meta = payload["meta"]
        assert meta["peak_rss_kib"] > 0
        assert meta["rss_peak_delta_kib"] >= 0
        parent = obs.Recorder("parent")
        obs.install(parent)
        try:
            with obs.span("world.routing"):
                merge_payload(payload)
        finally:
            obs.uninstall()
        chunk = parent.root.children[0].children[0]
        assert chunk.attrs["worker_rss_peak_kib"] == meta["peak_rss_kib"]
        assert chunk.rss_peak_delta_kib == meta["rss_peak_delta_kib"]

    def test_worker_crash_mid_chunk_merges_deterministically(self):
        """A capture that dies mid-span still pairs cleanly.

        The worker-side try/finally produces a payload whose open span
        is finished with error status, the buffer recorder is
        uninstalled, and the parent can merge the surviving payload
        next to a ``None`` from a chunk that never reported.
        """
        worker = start_capture(True)
        payload = None
        with pytest.raises(ValueError):
            try:
                with obs.span("routing.compute"):
                    raise ValueError("boom")
            finally:
                payload = finish_capture(worker)
        assert obs.active() is None
        assert [s["name"] for s in payload["spans"]] == ["routing.compute"]
        assert payload["spans"][0]["status"] == "error"

        parent = obs.Recorder("parent")
        obs.install(parent)
        try:
            with obs.span("world.routing"):
                merge_payload(payload)
                merge_payload(None)  # chunk whose worker died silently
        finally:
            obs.uninstall()
        merged = parent.root.children[0]
        assert [c.name for c in merged.children] == ["par.chunk"]
        chunk = merged.children[0]
        assert chunk.children[0].status == "error"

    def test_pool_crash_propagates_and_parent_recorder_survives(self):
        """A crashing task aborts the fan-out but not the recording."""
        recorder = obs.Recorder("parent")
        obs.install(recorder)
        try:
            with pytest.raises(ValueError):
                with obs.span("world.routing"):
                    map_deterministic(_explode, [1, 2, 3, 4], workers=2)
            with obs.span("after.crash"):
                pass
        finally:
            obs.uninstall()
        names = [c.name for c in recorder.root.children]
        assert names == ["world.routing", "after.crash"]
        region = recorder.root.children[0]
        assert region.status == "error"
        # The phase spans opened before the crash closed with the region.
        assert {c.name for c in region.children} <= {"par.fork", "par.dispatch"}

    def test_duplicate_counter_names_sum_across_workers(self):
        """Same counter incremented in two workers: subtree totals add."""
        payloads = []
        for index in range(2):
            worker = start_capture(True)
            try:
                obs.counter.inc("dns.queries", 3)
                obs.gauge.set("dns.cache_size", 7 + index)
            finally:
                payloads.append(finish_capture(worker))
        parent = obs.Recorder("parent")
        obs.install(parent)
        try:
            with obs.span("world.dns"):
                for payload in payloads:
                    merge_payload(payload)
        finally:
            obs.uninstall()
        merged = parent.root.children[0]
        assert merged.subtree_counters()["dns.queries"] == 6
        # Each wrapper keeps its own worker's contribution.
        assert [c.counters["dns.queries"] for c in merged.children] == [3, 3]
        assert [c.gauges["dns.cache_size"] for c in merged.children] == [7, 8]

    def test_traced_fanout_records_phases_and_chunks(self, tiny_topology):
        """A traced 2-worker fan-out reads in the span tree.

        The pool phases, then one ``par.chunk`` per announcement in
        submission order, each holding that task's ``routing.compute``.
        """
        announcements = _stub_announcements(tiny_topology, 4)
        obs.uninstall()
        with obs.recording("fanout") as recorder:
            with obs.span("world.routing"):
                compute_fanout(tiny_topology, announcements, workers=2)
        [region] = recorder.root.children
        assert [c.name for c in region.children] == [
            "par.stage", "par.fork", "par.dispatch", "par.merge",
        ]
        chunks = region.children[-1].children
        assert [c.name for c in chunks] == ["par.chunk"] * 4
        for chunk, announcement in zip(chunks, announcements):
            [compute] = chunk.children
            assert compute.name == "routing.compute"
            assert compute.attrs["prefix"] == str(announcement.prefix)
            assert compute.cpu_ms > 0.0
            assert chunk.wall_ms >= compute.wall_ms
            assert chunk.attrs["worker_rss_peak_kib"] > 0


class TestCodec:
    def _table(self, tiny_topology):
        ann = _stub_announcements(tiny_topology, 1)[0]
        return RoutingEngine(tiny_topology).compute_uncached(ann)

    def test_roundtrip_is_byte_identical(self, tiny_topology):
        table = self._table(tiny_topology)
        blob = encode_table(table)
        decoded = decode_table(blob, table.announcement, table.topology_version)
        assert decoded.best == table.best
        assert decoded._num_nodes == table._num_nodes
        assert decoded.topology_version == table.topology_version
        assert encode_table(decoded) == blob

    @given(
        num_nodes=st.integers(0, 2**31 - 1),
        rows=st.lists(
            st.tuples(
                st.integers(0, 2**31 - 1),
                st.integers(1, 5),
                st.integers(1, 6).flatmap(lambda hops: st.lists(
                    st.lists(st.integers(0, 2**31 - 1),
                             min_size=hops, max_size=hops),
                    min_size=1, max_size=3,
                )),
            ),
            max_size=12,
            unique_by=lambda row: row[0],
        ),
    )
    def test_roundtrip_property(self, num_nodes, rows):
        ann = Announcement(
            prefix=IPv4Prefix.parse("198.18.0.0/24"),
            origins=(OriginSpec(site_node=7),),
        )
        table = RoutingTable.from_rows(ann, 3, num_nodes, rows)
        blob = encode_table(table)
        decoded = decode_table(blob, ann, 3)
        assert decoded._num_nodes == num_nodes
        for column in ("_node_ids", "_choice_start", "_tiers",
                       "_path_start", "_path_nodes"):
            assert getattr(decoded, column) == getattr(table, column)
        assert encode_table(decoded) == blob

    def test_digest_is_order_sensitive(self, tiny_topology):
        anns = _stub_announcements(tiny_topology, 2)
        engine = RoutingEngine(tiny_topology)
        tables = [engine.compute_uncached(a) for a in anns]
        assert tables_digest(tables) != tables_digest(list(reversed(tables)))

    def test_bad_magic_rejected(self, tiny_topology):
        table = self._table(tiny_topology)
        blob = b"XXXX" + encode_table(table)[4:]
        with pytest.raises(CacheCorruption, match="magic"):
            decode_table(blob, table.announcement, table.topology_version)

    def test_unknown_version_rejected(self, tiny_topology):
        table = self._table(tiny_topology)
        blob = encode_table(table)
        blob = struct.pack("<4sH", MAGIC, FORMAT_VERSION + 1) + blob[6:]
        with pytest.raises(CacheCorruption, match="version"):
            decode_table(blob, table.announcement, table.topology_version)

    def test_bit_flip_fails_checksum(self, tiny_topology):
        table = self._table(tiny_topology)
        blob = bytearray(encode_table(table))
        blob[-1] ^= 0x40
        with pytest.raises(CacheCorruption, match="checksum"):
            decode_table(
                bytes(blob), table.announcement, table.topology_version
            )

    def test_truncation_rejected(self, tiny_topology):
        table = self._table(tiny_topology)
        blob = encode_table(table)
        with pytest.raises(CacheCorruption):
            decode_table(blob[:20], table.announcement, table.topology_version)
        with pytest.raises(CacheCorruption):
            decode_table(blob[:5], table.announcement, table.topology_version)

    def test_wrong_announcement_rejected(self, tiny_topology):
        table = self._table(tiny_topology)
        other = _stub_announcements(tiny_topology, 2)[1]
        with pytest.raises(CacheCorruption, match="mismatch"):
            decode_table(encode_table(table), other, table.topology_version)


class TestRoutingTableCache:
    def test_store_load_roundtrip(self, tiny_topology, tmp_path):
        cache = RoutingTableCache(tmp_path)
        ann = _stub_announcements(tiny_topology, 1)[0]
        table = RoutingEngine(tiny_topology).compute_uncached(ann)
        path = cache.store(tiny_topology, ann, table)
        assert path is not None and path.exists()
        loaded = cache.load(tiny_topology, ann)
        assert loaded is not None
        assert encode_table(loaded) == encode_table(table)
        assert cache.stats.stores == 1 and cache.stats.hits == 1

    def test_missing_entry_is_a_miss(self, tiny_topology, tmp_path):
        cache = RoutingTableCache(tmp_path)
        ann = _stub_announcements(tiny_topology, 1)[0]
        assert cache.load(tiny_topology, ann) is None
        assert cache.stats.misses == 1

    def test_corrupt_entry_deleted_and_counted(self, tiny_topology, tmp_path):
        cache = RoutingTableCache(tmp_path)
        ann = _stub_announcements(tiny_topology, 1)[0]
        path = cache.path_for(tiny_topology, ann)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"not a routing table")
        assert cache.load(tiny_topology, ann) is None
        assert cache.stats.corrupt == 1
        assert not path.exists()

    def test_clear_and_disk_stats(self, tiny_topology, tmp_path):
        cache = RoutingTableCache(tmp_path)
        anns = _stub_announcements(tiny_topology, 2)
        engine = RoutingEngine(tiny_topology)
        for ann in anns:
            cache.store(tiny_topology, ann, engine.compute_uncached(ann))
        entries, total_bytes = cache.disk_stats()
        assert entries == 2 and total_bytes > 0
        assert cache.clear() == 2
        assert cache.disk_stats() == (0, 0)

    def test_entry_size_stats(self, tiny_topology, tmp_path):
        cache = RoutingTableCache(tmp_path)
        assert cache.entry_size_stats().count == 0
        anns = _stub_announcements(tiny_topology, 3)
        engine = RoutingEngine(tiny_topology)
        for ann in anns:
            cache.store(tiny_topology, ann, engine.compute_uncached(ann))
        sizes = cache.entry_size_stats()
        assert sizes.count == 3
        assert 0 < sizes.min_bytes <= sizes.mean_bytes <= sizes.max_bytes
        _entries, total_bytes = cache.disk_stats()
        assert sizes.total_bytes == total_bytes

    @pytest.mark.parametrize("component", [
        "format-version", "engine-fingerprint", "topology", "announcement",
    ])
    def test_key_changes_with_each_component(self, monkeypatch, component):
        """Changing any one input of ``key_for`` changes the key."""
        import repro.par.cache as cache_module

        def topology(extra_link=False):
            net = Net()
            for node, city in ((1, "FRA"), (2, "JFK"), (3, "AMS")):
                net.node(node, city)
            net.transit(2, 1)
            if extra_link:
                net.peer(2, 3, iata="AMS")
            return net.topo

        def announcement(third_octet=0):
            prefix = IPv4Prefix.parse(f"198.18.{third_octet}.0/24")
            return Announcement(prefix=prefix,
                                origins=(OriginSpec(site_node=2),))

        cache = RoutingTableCache("/nonexistent")
        topo, ann = topology(), announcement()
        before = cache.key_for(topo, ann)
        if component == "format-version":
            monkeypatch.setattr(cache_module, "FORMAT_VERSION",
                                FORMAT_VERSION + 1)
        elif component == "engine-fingerprint":
            monkeypatch.setattr(cache_module, "_ENGINE_FP", "0" * 64)
        elif component == "topology":
            topo = topology(extra_link=True)
        else:
            ann = announcement(third_octet=1)
        assert cache.key_for(topo, ann) != before

    def test_topology_hash_tracks_version(self, tiny_topology):
        first = topology_hash(tiny_topology)
        assert topology_hash(tiny_topology) == first  # memoized
        assert len(first) == 64
        assert len(engine_fingerprint()) == 64

    def test_topology_hash_sees_cities_and_link_kinds(self):
        """Moving one PoP city, one interconnect city or changing one
        link's kind changes the hash; an identical build does not."""
        def build(pop="JFK", ic_city="FRA", kind=LinkKind.PEER_PRIVATE):
            net = Net()
            net.node(1, "FRA")
            net.node(2, pop)
            net.node(3, "AMS")
            net.transit(2, 1, iata=ic_city)
            net.peer(2, 3, iata="AMS", kind=kind)
            return topology_hash(net.topo)

        base = build()
        assert build() == base
        # IAD and JFK share a country: only the PoP city differs.
        variants = {build(pop="IAD"), build(ic_city="AMS"),
                    build(kind=LinkKind.TRANSIT)}
        assert len(variants) == 3 and base not in variants

    def test_announcement_key_encodes_restrictions(self, tiny_topology):
        stub = _stub_announcements(tiny_topology, 1)[0].origins[0].site_node
        prefix = IPv4Prefix.parse("198.18.9.0/24")
        open_ann = Announcement(
            prefix=prefix, origins=(OriginSpec(site_node=stub),)
        )
        closed = Announcement(
            prefix=prefix,
            origins=(OriginSpec(site_node=stub, neighbors=frozenset({3, 1})),),
        )
        assert announcement_key(open_ann) == f"198.18.9.0/24|{stub}:*"
        assert announcement_key(closed) == f"198.18.9.0/24|{stub}:1,3"


class TestCacheResolution:
    def test_default_is_off(self, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        clear_default_cache()
        assert resolve_cache() is None

    def test_env_dir_enables(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        clear_default_cache()
        cache = resolve_cache()
        assert cache is not None and cache.directory == tmp_path

    def test_override_beats_environment(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "env"))
        override = RoutingTableCache(tmp_path / "override")
        try:
            set_default_cache(override)
            assert resolve_cache() is override
            set_default_cache(None)
            assert resolve_cache() is None
        finally:
            clear_default_cache()

    def test_pickling_ships_directory_only(self, tmp_path):
        import pickle

        cache = RoutingTableCache(tmp_path)
        cache.stats.hits = 7
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.directory == cache.directory
        assert clone.stats.hits == 0


class TestEnginePersistentCache:
    def test_warm_cache_skips_every_compute_span(self, tiny_topology, tmp_path):
        anns = _stub_announcements(tiny_topology, 3)
        cold = RoutingEngine(tiny_topology)
        cold.persistent_cache = RoutingTableCache(tmp_path)
        cold_tables = cold.compute_many(anns, workers=1)
        assert cold.persistent_cache.stats.stores == len(anns)

        # A warm engine loads the batch; a second one loads the same
        # announcements one at a time through ``compute``.
        for load in (
            lambda engine: engine.compute_many(anns, workers=1),
            lambda engine: [engine.compute(a) for a in anns],
        ):
            warm = RoutingEngine(tiny_topology)
            warm.persistent_cache = RoutingTableCache(tmp_path)
            recorder = obs.Recorder("warm-run")
            obs.install(recorder)
            try:
                warm_tables = load(warm)
            finally:
                obs.uninstall()
            compute_spans = [
                path for path, _ in recorder.root.walk()
                if path.endswith("routing.compute")
            ]
            assert compute_spans == []
            assert recorder.root.counters["routing.pcache_hits"] == len(anns)
            assert tables_digest(warm_tables) == tables_digest(cold_tables)
            assert warm.cache_stats() == (len(anns), 0)

    def test_compute_prefers_memory_cache(self, tiny_topology, tmp_path):
        engine = RoutingEngine(tiny_topology)
        engine.persistent_cache = RoutingTableCache(tmp_path)
        ann = _stub_announcements(tiny_topology, 1)[0]
        table = engine.compute(ann)
        assert engine.compute(ann) is table
        assert engine.persistent_cache.stats.stores == 1
        assert engine.cache_hit_rate() == pytest.approx(0.5)


class TestParallelEquality:
    def test_compute_many_digest_matches_serial(self, tiny_topology):
        anns = _stub_announcements(tiny_topology, 4)
        serial = RoutingEngine(tiny_topology).compute_many(anns, workers=1)
        parallel = RoutingEngine(tiny_topology).compute_many(anns, workers=2)
        assert tables_digest(parallel) == tables_digest(serial)

    def test_small_world_digest_matches_serial(self, small_world):
        """The CI cross-leg check, in-process: SMALL world announcements
        computed serially and with two workers give one digest."""
        anns = small_world.registry.announcements()
        topology = small_world.topology
        serial = RoutingEngine(topology).compute_many(anns, workers=1)
        parallel = RoutingEngine(topology).compute_many(anns, workers=2)
        assert tables_digest(serial) == tables_digest(parallel)
        # The world precomputed the same tables during build.
        built = [small_world.engine.routing.compute(a) for a in anns]
        assert tables_digest(built) == tables_digest(serial)


class TestCacheCli:
    def _warm(self, tiny_topology, directory):
        cache = RoutingTableCache(directory)
        ann = _stub_announcements(tiny_topology, 1)[0]
        cache.store(
            tiny_topology, ann,
            RoutingEngine(tiny_topology).compute_uncached(ann),
        )
        return cache

    def test_stats_and_clear(self, tiny_topology, tmp_path, capsys):
        from repro.cli import main

        cache = self._warm(tiny_topology, tmp_path)
        assert main(["cache", "stats", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert str(tmp_path) in out and "entries: 1" in out
        assert main(["cache", "clear", "--dir", str(tmp_path)]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert cache.entries() == []

    def test_cache_path_that_is_a_file_fails_up_front(
            self, tmp_path, monkeypatch, capsys):
        import repro.cli as cli

        monkeypatch.setattr(cli, "World", _no_build)
        regular = tmp_path / "F"
        regular.write_text("", encoding="utf-8")
        argv = ["digest", "--small", "--cache-dir", str(regular)]
        assert cli.main(argv) == 2
        assert str(regular) in capsys.readouterr().err
        monkeypatch.setenv(CACHE_DIR_ENV, str(regular))
        assert cli.main(["digest", "--small"]) == 2
        err = capsys.readouterr().err
        assert CACHE_DIR_ENV in err and str(regular) in err

    def test_store_into_a_file_path_is_swallowed(self, tiny_topology,
                                                 tmp_path):
        """At run time a failing store still degrades to recomputation."""
        regular = tmp_path / "F"
        regular.write_text("", encoding="utf-8")
        cache = RoutingTableCache(regular)
        ann = _stub_announcements(tiny_topology, 1)[0]
        table = RoutingEngine(tiny_topology).compute_uncached(ann)
        assert cache.store(tiny_topology, ann, table) is None
        assert cache.stats.store_errors == 1

    def test_stats_respects_env_dir(self, tiny_topology, tmp_path,
                                    monkeypatch, capsys):
        from repro.cli import main

        self._warm(tiny_topology, tmp_path)
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        clear_default_cache()
        assert main(["cache", "stats"]) == 0
        assert "entries: 1" in capsys.readouterr().out

        # Without it, builds cache nothing, but ``repro cache`` still
        # reads the XDG default location.
        monkeypatch.delenv(CACHE_DIR_ENV)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert resolve_cache() is None
        assert default_cache_dir() == tmp_path / "xdg" / "repro"
        self._warm(tiny_topology, default_cache_dir())
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert str(tmp_path / "xdg" / "repro") in out
        assert "entries: 1" in out
