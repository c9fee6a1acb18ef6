"""Cache format v2 (packed columns + varints): versioning and size.

The v2 codec decodes straight into the packed columns of
:class:`repro.routing.table.RoutingTable`.  Old-format (v1) and corrupt
entries must be detected and deleted cleanly by
:meth:`RoutingTableCache.load`, and the varint entry section must
actually be smaller than the fixed-width layout it replaced — the shrink
``repro cache stats`` reports.
"""

from __future__ import annotations

import struct

import pytest

from repro.netaddr.ipv4 import IPv4Prefix
from repro.par.cache import (
    FORMAT_VERSION,
    MAGIC,
    CacheCorruption,
    RoutingTableCache,
    announcement_key,
    decode_table,
    encode_table,
)
from repro.routing.engine import RoutingEngine
from repro.routing.route import Announcement, OriginSpec
from repro.topology.asys import Tier

PREFIX = IPv4Prefix.parse("198.18.0.0/24")


@pytest.fixture(scope="module")
def announcement(tiny_topology) -> Announcement:
    stubs = [n.node_id for n in tiny_topology.nodes()
             if n.tier is Tier.STUB]
    return Announcement(
        prefix=PREFIX,
        origins=(OriginSpec(site_node=stubs[0]),
                 OriginSpec(site_node=stubs[-1])),
    )


@pytest.fixture(scope="module")
def table(tiny_topology, announcement):
    return RoutingEngine(tiny_topology).compute_uncached(announcement)


def _with_version(blob: bytes, version: int) -> bytes:
    return struct.pack("<4sH", MAGIC, version) + blob[6:]


class TestFormatVersioning:
    def test_current_version_is_two(self):
        assert FORMAT_VERSION == 2

    def test_v1_blob_rejected(self, table):
        blob = _with_version(encode_table(table), 1)
        with pytest.raises(CacheCorruption, match="version 1"):
            decode_table(blob, table.announcement, table.topology_version)

    def test_old_version_entry_deleted_by_load(
        self, tiny_topology, announcement, table, tmp_path
    ):
        cache = RoutingTableCache(tmp_path)
        path = cache.store(tiny_topology, announcement, table)
        assert path is not None
        path.write_bytes(_with_version(path.read_bytes(), 1))
        assert cache.load(tiny_topology, announcement) is None
        assert cache.stats.corrupt == 1
        assert cache.stats.misses == 1
        assert not path.exists(), "stale-format entry must be deleted"

    def test_corrupt_entry_deleted_by_load(
        self, tiny_topology, announcement, table, tmp_path
    ):
        cache = RoutingTableCache(tmp_path)
        path = cache.store(tiny_topology, announcement, table)
        assert path is not None
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert cache.load(tiny_topology, announcement) is None
        assert cache.stats.corrupt == 1
        assert not path.exists(), "corrupt entry must be deleted"
        # A fresh store recovers cleanly after the deletion.
        assert cache.store(tiny_topology, announcement, table) is not None
        reloaded = cache.load(tiny_topology, announcement)
        assert reloaded is not None
        assert encode_table(reloaded) == encode_table(table)


def _fixed_width_reference(table) -> bytes:
    """The pre-v2 entry layout: 4-byte ints everywhere (no varints)."""
    body = bytearray()
    key = announcement_key(table.announcement).encode()
    body += struct.pack("<H", len(key)) + key
    body += struct.pack("<ii", table._num_nodes, len(table.best))
    for node_id, choice in table.best.items():
        body += struct.pack("<ii", node_id, len(choice.routes))
        for route in choice.routes:
            body += struct.pack("<bi", int(route.tier), len(route.path))
            for hop in route.path:
                body += struct.pack("<i", hop)
    return struct.pack("<4sH", MAGIC, 1) + b"\x00" * 32 + bytes(body)


class TestEntrySize:
    def test_varint_entries_beat_fixed_width(self, table):
        blob = encode_table(table)
        reference = _fixed_width_reference(table)
        assert len(blob) < len(reference)
        shrink = len(reference) / len(blob)
        assert shrink > 1.5, f"expected a real shrink, got {shrink:.2f}x"

    def test_entry_size_stats_reflect_packed_blob(
        self, tiny_topology, announcement, table, tmp_path
    ):
        cache = RoutingTableCache(tmp_path)
        cache.store(tiny_topology, announcement, table)
        stats = cache.entry_size_stats()
        assert stats.count == 1
        assert stats.total_bytes == len(encode_table(table))
