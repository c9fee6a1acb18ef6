"""Tests for repro.par: deterministic parallelism + the persistent cache.

The package's one contract — parallel execution must be invisible in the
results — is checked directly: every parallel path is compared against
its serial twin for byte-level equality, and the on-disk cache is
round-tripped, corrupted, and invalidated on purpose.  The parallel
path is driven the one way a user drives it, through ``REPRO_WORKERS``.
"""

import struct

import pytest
from hypothesis import given, strategies as st

from repro import obs
from repro.explain import provenance
from repro.netaddr.ipv4 import IPv4Prefix
from repro.par import routing as par_routing
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
from repro.par.routing import WORKERS_ENV, compute_fanout, worker_count
from repro.routing.engine import RoutingEngine
from repro.routing.route import Announcement, OriginSpec
from repro.routing.table import RoutingTable
from repro.topology.asys import LinkKind, Tier
from tests.test_routing import Net

#: The phase spans of one traced fan-out, in order.
PHASES = ["par.stage", "par.fork", "par.dispatch", "par.merge"]


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


def _stray(topology, announcement):
    """``announcement`` re-originated at a node the topology lacks."""
    missing = 1 + max(node.node_id for node in topology.nodes())
    return Announcement(prefix=announcement.prefix,
                        origins=(OriginSpec(site_node=missing),))


def _compute_many(monkeypatch, topology, announcements, workers):
    """``compute_many`` on a fresh engine under ``REPRO_WORKERS=workers``."""
    monkeypatch.setenv(WORKERS_ENV, workers)
    return RoutingEngine(topology).compute_many(announcements)


def _par_spans(recorder):
    """Names of the ``par.*`` spans in a recording, pre-order."""
    return [record.name for _, record in recorder.root.walk()
            if record.name.startswith("par.")]


@pytest.fixture
def worker(tiny_topology, monkeypatch):
    """This process set up as a routing worker over ``tiny_topology``."""
    monkeypatch.setattr(par_routing, "_WORKER_ENGINE", None)
    par_routing._init_routing_worker(tiny_topology)
    return par_routing


class _SpanlessEngine:
    """A worker engine whose compute opens no span."""

    def compute_uncached(self, announcement):
        return announcement.prefix


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


class TestMapDeterministic:
    """``compute_many`` is an order-preserving map over its
    announcements, whatever ``REPRO_WORKERS`` says."""

    def test_serial_path_is_plain_map(self, tiny_topology, monkeypatch):
        """One worker computes in-process, in input order, with no pool."""
        announcements = _stub_announcements(tiny_topology, 4)
        monkeypatch.setenv(WORKERS_ENV, "1")
        with obs.recording("serial") as recorder:
            tables = RoutingEngine(tiny_topology).compute_many(announcements)
        assert [t.announcement for t in tables] == announcements
        assert _par_spans(recorder) == []
        assert [c.attrs["prefix"]
                for c in recorder.root.find_all("routing.compute")] == [
            str(a.prefix) for a in announcements]

    def test_parallel_matches_serial_order(self, tiny_topology, monkeypatch):
        announcements = _stub_announcements(tiny_topology, 4)
        serial = _compute_many(monkeypatch, tiny_topology, announcements, "1")
        parallel = _compute_many(monkeypatch, tiny_topology, announcements,
                                 "2")
        assert [t.announcement for t in parallel] == announcements
        assert [encode_table(t) for t in parallel] == [
            encode_table(t) for t in serial]

    def test_empty_input(self, tiny_topology, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "4")
        with obs.recording("empty") as recorder:
            assert RoutingEngine(tiny_topology).compute_many([]) == []
        assert _par_spans(recorder) == []


class TestCaptureBlocksParallel:
    """``compute_many`` fans out only when no process-local capture
    would lose what the workers record."""

    def test_plain_recorder_does_not_block(self, tiny_topology, monkeypatch):
        announcements = _stub_announcements(tiny_topology, 3)
        monkeypatch.setenv(WORKERS_ENV, "2")
        with obs.recording("plain") as recorder:
            RoutingEngine(tiny_topology).compute_many(announcements)
        assert _par_spans(recorder) == PHASES + ["par.chunk"] * 3

    def test_provenance_blocks(self, tiny_topology, monkeypatch):
        """Every announcement's selection trails land in the capture."""
        announcements = _stub_announcements(tiny_topology, 3)
        monkeypatch.setenv(WORKERS_ENV, "2")
        with obs.recording("explain") as recorder, \
                provenance.capturing() as capture:
            tables = RoutingEngine(tiny_topology).compute_many(announcements)
        assert _par_spans(recorder) == []
        for table in tables:
            prefix = str(table.prefix)
            assert all(capture.selection_for(prefix, node) is not None
                       for node in table.best)


class TestWorkerCaptureReset:
    def test_reset_clears_recorder_provenance_and_trace(self, tiny_topology,
                                                        monkeypatch):
        """A forked worker starts with the parent's captures switched off."""
        monkeypatch.setattr(par_routing, "_WORKER_ENGINE", None)
        obs.install(obs.Recorder("parent"))
        provenance.install(provenance.ProvenanceRecorder())
        try:
            par_routing._init_routing_worker(tiny_topology)
            assert obs.active() is None
            assert provenance.active() is None
        finally:
            obs.install(None)
            provenance.install(None)


class TestObsBuffers:
    """A traced task's spans come back as one ``par.chunk``: the finished
    root of the worker's own recording."""

    def test_disabled_capture_is_free(self, worker, tiny_topology):
        """An untraced task records nothing and returns no chunk."""
        [announcement] = _stub_announcements(tiny_topology, 1)
        table, chunk = worker._compute_task((announcement, False))
        assert chunk is None and obs.active() is None
        assert encode_table(table) == encode_table(
            RoutingEngine(tiny_topology).compute_uncached(announcement))

    def test_capture_and_merge_in_order(self, tiny_topology, monkeypatch):
        """Traced ``compute_many``: one chunk per announcement, in order."""
        announcements = _stub_announcements(tiny_topology, 4)
        monkeypatch.setenv(WORKERS_ENV, "2")
        with obs.recording("parent") as recorder:
            with obs.span("world.routing"):
                tables = RoutingEngine(tiny_topology).compute_many(
                    announcements)
        merge = recorder.root.find("par.merge")
        assert [chunk.children[0].attrs["prefix"]
                for chunk in merge.children] == [
            str(a.prefix) for a in announcements]
        assert [t.announcement for t in tables] == announcements

    def test_zero_span_worker_still_merges_a_chunk(self, worker,
                                                   tiny_topology,
                                                   monkeypatch):
        """A task that opens no span still returns its timed chunk."""
        monkeypatch.setattr(worker, "_WORKER_ENGINE", _SpanlessEngine())
        [announcement] = _stub_announcements(tiny_topology, 1)
        _, chunk = worker._compute_task((announcement, True))
        assert chunk.name == "par.chunk"
        assert chunk.children == [] and chunk.counters == {}
        assert chunk.wall_ms > 0.0 and chunk.cpu_ms >= 0.0

    def test_zero_span_worker_still_reports_memory(self, worker,
                                                   tiny_topology,
                                                   monkeypatch):
        """Peak RSS is process truth: reported even with zero spans."""
        monkeypatch.setattr(worker, "_WORKER_ENGINE", _SpanlessEngine())
        [announcement] = _stub_announcements(tiny_topology, 1)
        _, chunk = worker._compute_task((announcement, True))
        assert chunk.attrs["worker_rss_peak_kib"] > 0
        assert chunk.rss_peak_delta_kib >= 0

    def test_worker_crash_mid_chunk_merges_deterministically(
            self, worker, tiny_topology):
        """A task that dies mid-span leaves no recorder behind, so the
        worker's next chunk holds only its own spans."""
        [announcement] = _stub_announcements(tiny_topology, 1)
        with pytest.raises(ValueError, match="not in topology"):
            worker._compute_task((_stray(tiny_topology, announcement), True))
        assert obs.active() is None
        _, chunk = worker._compute_task((announcement, True))
        assert [c.name for c in chunk.children] == ["routing.compute"]
        assert chunk.children[0].status == "ok"

    def test_pool_crash_propagates_and_parent_recorder_survives(
            self, tiny_topology, monkeypatch):
        """A task whose origin is not in the topology aborts the fan-out
        but not the recording."""
        announcements = _stub_announcements(tiny_topology, 3)
        announcements[1] = _stray(tiny_topology, announcements[1])
        monkeypatch.setenv(WORKERS_ENV, "2")
        with obs.recording("parent") as recorder:
            with pytest.raises(ValueError, match="not in topology"):
                with obs.span("world.routing"):
                    compute_fanout(tiny_topology, announcements)
            with obs.span("after.crash"):
                pass
        names = [c.name for c in recorder.root.children]
        assert names == ["world.routing", "after.crash"]
        region = recorder.root.children[0]
        assert region.status == "error"
        assert [c.name for c in region.children] == PHASES[:3]
        assert region.children[-1].status == "error"
        assert par_routing._FORK_TOPOLOGY is None

    def test_duplicate_counter_names_sum_across_workers(self, tiny_topology,
                                                        monkeypatch):
        """The counters two workers bump under one name add up to a
        serial traced compute's totals."""
        announcements = _stub_announcements(tiny_topology, 4)
        monkeypatch.setenv(WORKERS_ENV, "2")
        with obs.recording("parallel") as parallel:
            compute_fanout(tiny_topology, announcements)
        with obs.recording("serial") as serial:
            engine = RoutingEngine(tiny_topology)
            for announcement in announcements:
                engine.compute_uncached(announcement)
        totals = serial.root.subtree_counters()
        assert totals and parallel.root.subtree_counters() == totals
        chunks = parallel.root.find("par.merge").children
        for name, total in totals.items():
            assert sum(c.subtree_counters().get(name, 0.0)
                       for c in chunks) == total

    def test_traced_fanout_records_phases_and_chunks(self, tiny_topology,
                                                     monkeypatch):
        """A traced 2-worker fan-out reads in the span tree.

        The pool phases, then one ``par.chunk`` per announcement in
        submission order, each holding that task's ``routing.compute``.
        """
        announcements = _stub_announcements(tiny_topology, 4)
        monkeypatch.setenv(WORKERS_ENV, "2")
        with obs.recording("fanout") as recorder:
            with obs.span("world.routing"):
                compute_fanout(tiny_topology, announcements)
        [region] = recorder.root.children
        assert [c.name for c in region.children] == PHASES
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


class TestEnginePersistentCache:
    def test_warm_cache_skips_every_compute_span(self, tiny_topology,
                                                 tmp_path, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "1")
        anns = _stub_announcements(tiny_topology, 3)
        cold = RoutingEngine(tiny_topology)
        cold.persistent_cache = RoutingTableCache(tmp_path)
        cold_tables = cold.compute_many(anns)
        assert cold.persistent_cache.stats.stores == len(anns)

        # A warm engine loads the batch; a second one loads the same
        # announcements one at a time through ``compute``.
        for load in (
            lambda engine: engine.compute_many(anns),
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
    def test_compute_many_digest_matches_serial(self, tiny_topology,
                                                monkeypatch):
        anns = _stub_announcements(tiny_topology, 4)
        serial = _compute_many(monkeypatch, tiny_topology, anns, "1")
        parallel = _compute_many(monkeypatch, tiny_topology, anns, "2")
        assert tables_digest(parallel) == tables_digest(serial)

    def test_small_world_digest_matches_serial(self, fresh_small,
                                               monkeypatch):
        """The CI cross-leg check, in-process: SMALL world announcements
        computed serially and with two workers give one digest."""
        anns = fresh_small.registry.announcements()
        topology = fresh_small.topology
        serial = _compute_many(monkeypatch, topology, anns, "1")
        parallel = _compute_many(monkeypatch, topology, anns, "2")
        assert tables_digest(serial) == tables_digest(parallel)
        # The world precomputed the same tables during build.
        built = [fresh_small.engine.routing.compute(a) for a in anns]
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

    def test_stale_generations_counted_apart_and_cleared(
            self, tiny_topology, tmp_path, capsys):
        from repro.cli import main

        cache = self._warm(tiny_topology, tmp_path)
        (current,) = cache.entries()
        generation = f"v{FORMAT_VERSION}-{engine_fingerprint()[:12]}"
        assert current.parent == cache.generation_dir == tmp_path / generation
        old = tmp_path / "v3-0123456789ab"
        old.mkdir()
        for name in ("a", "b"):
            (old / f"{name}.rtc").write_bytes(b"x" * 100)
        (tmp_path / "legacy.rtc").write_bytes(b"y" * 7)
        foreign = tmp_path / "notes"
        foreign.mkdir()
        (foreign / "kept.rtc").write_bytes(b"z")
        (tmp_path / "README").write_text("kept", encoding="utf-8")

        assert main(["cache", "stats", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert f"generation: {generation}" in out
        assert "entries: 1\n" in out
        assert f"bytes: {current.stat().st_size}\n" in out
        assert "generation v3-0123456789ab: 2 entries, 200 bytes" in out
        assert "top level (before generations): 1 entries, 7 bytes" in out
        assert out.count("\nstale, ") == 2 and "notes" not in out
        assert [(s.name, s.count, s.total_bytes) for s in cache.stale()] == [
            ("v3-0123456789ab", 2, 200), (".", 1, 7)]

        assert main(["cache", "clear", "--dir", str(tmp_path)]) == 0
        assert "removed 4 entries" in capsys.readouterr().out
        assert sorted(p.name for p in tmp_path.iterdir()) == ["README",
                                                              "notes"]
        assert (foreign / "kept.rtc").exists()
        assert cache.stale() == [] and cache.disk_stats() == (0, 0)

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

    @pytest.mark.parametrize("command", ["stats", "clear"])
    def test_cache_command_dir_that_is_a_file_fails_up_front(
            self, tmp_path, monkeypatch, capsys, command):
        import repro.cli as cli
        import repro.par.cache as cache_module

        def no_cache(*args, **kwargs):
            raise AssertionError("a misconfigured cache command ran")

        monkeypatch.setattr(cache_module, "RoutingTableCache", no_cache)
        regular = tmp_path / "F"
        regular.write_text("kept", encoding="utf-8")
        assert cli.main(["cache", command, "--dir", str(regular)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--dir" in captured.err and str(regular) in captured.err
        assert regular.read_text(encoding="utf-8") == "kept"

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
