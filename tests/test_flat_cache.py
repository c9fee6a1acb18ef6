"""Cache format v3 (compressed packed columns): versioning, checks, size.

The v3 codec stores the five columns of a
:class:`repro.routing.table.RoutingTable` whole, zlib-compressed, and
rebuilds them with ``array.frombytes``.  Nothing is decoded field by
field, so the decoder checks that the columns form a table: every forged
entry below carries a valid checksum, only those checks can reject it,
and :meth:`RoutingTableCache.load` must count it as corrupt and delete
it.  Old-format entries (v1, and v2's varint rows) are rejected by
version.  The entries must also stay well smaller than the fixed-width
layout v2 replaced — the size ``repro cache stats`` reports.
"""

from __future__ import annotations

import hashlib
import struct
import zlib

import pytest

from repro.netaddr.ipv4 import IPv4Prefix
from repro.par.cache import (
    FORMAT_VERSION,
    MAGIC,
    CacheCorruption,
    RoutingTableCache,
    _digest_entry,
    announcement_key,
    decode_table,
    encode_table,
)
from repro.routing.engine import RoutingEngine
from repro.routing.route import Announcement, OriginSpec, PrefTier
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
    def test_current_version_is_three(self):
        assert FORMAT_VERSION == 3

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

    def test_v2_entry_rejected_and_deleted_by_load(
        self, tiny_topology, announcement, table, tmp_path
    ):
        # The digest stream is the v2 entry layout, byte for byte.
        v2_entry = _digest_entry(table)
        with pytest.raises(CacheCorruption, match="version 2"):
            decode_table(v2_entry, table.announcement, table.topology_version)
        cache = RoutingTableCache(tmp_path)
        path = cache.path_for(tiny_topology, announcement)
        path.write_bytes(v2_entry)
        assert cache.load(tiny_topology, announcement) is None
        assert cache.stats.corrupt == 1
        assert not path.exists(), "v2 entry must be deleted"

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


# ----------------------------------------------------------------------
# Forged entries: valid checksum, defective columns
# ----------------------------------------------------------------------

_ORIGIN = int(PrefTier.ORIGIN)
_CUSTOMER = int(PrefTier.CUSTOMER)

#: Three rows: origin 1, node 2 with one route, node 3 with two
#: equal-best routes of three hops each.
_VALID = {
    "node_ids": [1, 2, 3],
    "choice_start": [0, 1, 2, 4],
    "tiers": [_ORIGIN, _CUSTOMER, _CUSTOMER],
    "path_start": [0, 1, 3, 6, 9],
    "path_nodes": [1, 2, 1, 3, 2, 1, 3, 4, 1],
}


def _section(columns: dict[str, list[int]], num_nodes: int = 5) -> bytes:
    """The uncompressed v3 section: four counts, then the columns."""
    counts = struct.pack(
        "<4I", num_nodes, len(columns["node_ids"]),
        len(columns["path_start"]) - 1, len(columns["path_nodes"]),
    )
    packed = [
        struct.pack(f"<{len(values)}{'b' if name == 'tiers' else 'i'}",
                    *values)
        for name, values in columns.items()
    ]
    return counts + b"".join(packed)


def _forge(announcement: Announcement, section: bytes) -> bytes:
    """A v3 entry around ``section``, checksummed like a real one."""
    key = announcement_key(announcement).encode()
    body = struct.pack("<H", len(key)) + key + zlib.compress(section, 1)
    checksum = hashlib.sha256(body).digest()
    return struct.pack("<4sH", MAGIC, FORMAT_VERSION) + checksum + body


def _defect(**columns: list[int]) -> bytes:
    return _section({**_VALID, **columns})


FORGED = {
    "tier 0": (_defect(tiers=[_ORIGIN, 0, _CUSTOMER]), "tier"),
    "tier 6": (_defect(tiers=[_ORIGIN, _CUSTOMER, 6]), "tier"),
    "row without routes": (_defect(
        node_ids=[1, 2, 3, 4], choice_start=[0, 1, 2, 2, 4],
        tiers=[_ORIGIN, _CUSTOMER, _CUSTOMER, _CUSTOMER],
    ), "no routes"),
    "empty path": (_defect(path_start=[0, 1, 3, 3, 9]), "empty path"),
    "unequal equal-best lengths": (_defect(
        path_start=[0, 1, 3, 5, 9], path_nodes=[1, 2, 1, 3, 1, 3, 4, 2, 1],
    ), "share one length"),
    "offsets past the data": (_defect(choice_start=[0, 1, 2, 5]),
                              "does not span"),
    "truncated column": (_section(_VALID)[:-4], "truncated column"),
    "trailing bytes": (_section(_VALID) + b"\0", "trailing bytes"),
}


class TestForgedEntries:
    def test_valid_forgery_decodes(self, announcement):
        decoded = decode_table(
            _forge(announcement, _section(_VALID)), announcement, 0
        )
        assert list(decoded.best) == [1, 2, 3]
        assert [r.path for r in decoded.best[3].routes] == [
            (3, 2, 1), (3, 4, 1)
        ]

    @pytest.mark.parametrize("defect", sorted(FORGED))
    def test_defect_rejected_and_deleted_by_load(
        self, defect, tiny_topology, announcement, tmp_path
    ):
        section, message = FORGED[defect]
        blob = _forge(announcement, section)
        with pytest.raises(CacheCorruption, match=message):
            decode_table(blob, announcement, tiny_topology.version)
        cache = RoutingTableCache(tmp_path)
        path = cache.path_for(tiny_topology, announcement)
        path.write_bytes(blob)
        assert cache.load(tiny_topology, announcement) is None
        assert cache.stats.corrupt == 1
        assert cache.stats.misses == 1
        assert not path.exists(), f"{defect}: entry must be deleted"


# ----------------------------------------------------------------------
# Size
# ----------------------------------------------------------------------

def _fixed_width_reference(table) -> bytes:
    """The pre-v2 entry layout: 4-byte ints everywhere, uncompressed."""
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
    def test_packed_entries_beat_fixed_width(self, table):
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
