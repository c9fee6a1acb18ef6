"""Persistent on-disk routing-table cache.

A cold ``repro run`` recomputes the exact Gao-Rexford tables the previous
run already produced: the in-process cache on
:class:`repro.routing.engine.RoutingEngine` dies with the process.  This
module gives routing tables a life across processes.

**Keying.**  A cached table is valid exactly when three things match:

- the *topology content hash* — SHA-256 over every field
  :func:`repro.topology.io.dump_topology` writes, fed as text lines
  (memoized per topology version, so repeated lookups cost a dict
  probe);
- the *announcement key* — prefix plus every origin site and its
  neighbor restriction, in announcement order;
- the *engine fingerprint* — SHA-256 over the source bytes of every
  module in :data:`FINGERPRINT_MODULES` (the result-relevant closure of
  the compute path), so changing the algorithm silently invalidates
  every table the old code produced.

**Format.**  Entries are versioned binary blobs: a magic/version header,
a SHA-256 checksum, the announcement key, then a zlib-compressed copy of
the table's five packed columns, little-endian (row order preserved, so
a loaded table is byte-identical to the one stored).  Writes go to a
temp file in the same directory and are published with an atomic
:func:`os.replace`; concurrent writers (parallel workers warming the
same directory) cannot tear an entry.

**Degradation.**  A corrupt, truncated, or foreign file is treated as a
miss, counted, and deleted; a failing store (read-only dir, disk full)
is swallowed and counted.  The cache never makes a run fail.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import struct
import sys
import weakref
import zlib
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress
from operator import ne, sub
from pathlib import Path
from typing import Iterable

from repro.netaddr.ipv4 import IPv4Prefix
from repro.routing.route import Announcement
from repro.routing.table import RoutingTable
from repro.topology.graph import Topology

#: On-disk entry layout version; bump when the binary format changes.
#: v3 stores the :class:`repro.routing.table.RoutingTable` columns whole
#: behind a count header, zlib level 1: C-level copies where v2 ran a
#: varint loop in Python per byte.
FORMAT_VERSION = 3

MAGIC = b"RPRT"

#: File extension of cache entries.
SUFFIX = ".rtc"

#: Environment variable naming the cache directory (enables the cache).
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

_HEADER = struct.Struct("<4sH")
_CHECKSUM_LEN = hashlib.sha256().digest_size


class CacheCorruption(ValueError):
    """A cache entry failed structural or checksum validation."""


# ----------------------------------------------------------------------
# Keying
# ----------------------------------------------------------------------

_TOPO_HASHES: "weakref.WeakKeyDictionary[Topology, tuple[int, str]]" = (
    weakref.WeakKeyDictionary()
)


def _prefix_text(prefix: IPv4Prefix | None) -> str:
    return "-" if prefix is None else f"{prefix.network}/{prefix.length}"


def topology_hash(topology: Topology) -> str:
    """Content hash of a topology, memoized per ``topology.version``.

    SHA-256 over every field :func:`repro.topology.io.dump_topology`
    writes, in its order: a counted section of text lines for the
    nodes, the IXPs and the links, addresses as integers.  Hashing the
    JSON document instead takes about twice as long on LARGE.
    """
    cached = _TOPO_HASHES.get(topology)
    if cached is not None and cached[0] == topology.version:
        return cached[1]
    nodes = [
        f"{n.node_id} {n.asn} {n.name!r} {n.tier.value} {n.home_country} "
        f"{_prefix_text(n.infra_prefix)} {' '.join(p.iata for p in n.pops)}"
        for n in topology.nodes()
    ]
    ixps = [
        f"{x.ixp_id} {x.name!r} {x.city.iata} {_prefix_text(x.lan_prefix)} "
        f"{x.publishes_route_server_feed} {sorted(x.members)} "
        f"{sorted(x.route_server_members)}"
        for x in topology.ixps()
    ]
    links = [
        f"{link.a} {link.b} {link.kind.value} {link.ixp_id} " + " ".join([
            f"{ic.city.iata} {ic.addr_a.value} {ic.addr_b.value} {ic.extra_ms!r}"
            for ic in link.interconnects
        ])
        for link in topology.links()
    ]
    hasher = hashlib.sha256()
    for section, lines in (("nodes", nodes), ("ixps", ixps), ("links", links)):
        hasher.update(f"{section} {len(lines)}\n".encode())
        hasher.update("".join([line + "\n" for line in lines]).encode())
    digest = hasher.hexdigest()
    _TOPO_HASHES[topology] = (topology.version, digest)
    return digest


#: Every module whose source can change a cached routing table.
#: ``tests/test_compute_closure.py`` profiles
#: ``RoutingEngine.compute_uncached`` and fails when a ``repro`` module
#: that ran is missing here (``repro.obs``, ``repro.explain`` and
#: ``repro.par`` excepted) — over-invalidation is safe, silent staleness
#: is not.
FINGERPRINT_MODULES: tuple[str, ...] = (
    "repro.geo.coords",
    "repro.geoloc.database",
    "repro.netaddr.ipv4",
    "repro.routing.engine",
    "repro.routing.route",
    "repro.routing.table",
    "repro.topology.asys",
    "repro.topology.flat",
    "repro.topology.graph",
)

_ENGINE_FP: str | None = None


def engine_fingerprint() -> str:
    """Hash of the compute path's source bytes.

    A changed algorithm must not serve tables cached by the old one;
    hashing the :data:`FINGERPRINT_MODULES` files makes invalidation
    automatic without a hand-maintained schema number.
    """
    global _ENGINE_FP
    if _ENGINE_FP is None:
        hasher = hashlib.sha256()
        for name in FINGERPRINT_MODULES:
            module = importlib.import_module(name)
            source = module.__file__
            assert source is not None
            hasher.update(name.encode() + b"\0")
            hasher.update(Path(source).read_bytes())
        _ENGINE_FP = hasher.hexdigest()
    return _ENGINE_FP


def announcement_key(announcement: Announcement) -> str:
    """Canonical string form of an announcement (order-preserving)."""
    parts = [str(announcement.prefix)]
    for origin in announcement.origins:
        if origin.neighbors is None:
            parts.append(f"{origin.site_node}:*")
        else:
            neighbors = ",".join(str(n) for n in sorted(origin.neighbors))
            parts.append(f"{origin.site_node}:{neighbors}")
    return "|".join(parts)


# ----------------------------------------------------------------------
# Binary codec
# ----------------------------------------------------------------------

#: Counts heading the compressed section: num_nodes, rows, routes, hops.
_COUNTS = struct.Struct("<4I")

#: Columns are stored little-endian, like every header field.
_SWAP = sys.byteorder != "little"


def _swapped(column: array) -> array:
    """``column`` converted between host and stored byte order."""
    if _SWAP:
        column = array(column.typecode, column)
        column.byteswap()
    return column


def encode_table(table: RoutingTable) -> bytes:
    """Serialise a routing table to a versioned, checksummed blob.

    The five packed columns are copied out whole, in table row order,
    so ``encode_table(decode)`` round-trips byte-identically — the
    property the serial-vs-parallel digest checks build on.
    """
    columns = (table._node_ids, table._choice_start, table._tiers,
               table._path_start, table._path_nodes)
    counts = _COUNTS.pack(table._num_nodes, len(table._node_ids),
                          len(table._path_start) - 1, len(table._path_nodes))
    payload = b"".join([counts, *(_swapped(c).tobytes() for c in columns)])
    key = announcement_key(table.announcement).encode()
    body = struct.pack("<H", len(key)) + key + zlib.compress(payload, 1)
    checksum = hashlib.sha256(body).digest()
    return _HEADER.pack(MAGIC, FORMAT_VERSION) + checksum + body


def decode_table(
    blob: bytes, announcement: Announcement, topology_version: int
) -> RoutingTable:
    """Rebuild a routing table from :func:`encode_table` output.

    Raises :class:`CacheCorruption` on any structural defect: bad magic,
    unknown version, checksum mismatch, announcement-key mismatch,
    truncated/over-long payloads, or columns that do not form a table.
    """
    try:
        return _decode_table(blob, announcement, topology_version)
    except CacheCorruption:
        raise
    except (struct.error, ValueError, IndexError, zlib.error) as exc:
        raise CacheCorruption(f"undecodable cache entry: {exc}") from exc


def _decode_table(
    blob: bytes, announcement: Announcement, topology_version: int
) -> RoutingTable:
    header_len = _HEADER.size + _CHECKSUM_LEN
    if len(blob) < header_len:
        raise CacheCorruption("entry shorter than its header")
    magic, version = _HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise CacheCorruption(f"bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise CacheCorruption(f"unsupported cache format version {version}")
    checksum = blob[_HEADER.size:header_len]
    body = blob[header_len:]
    if hashlib.sha256(body).digest() != checksum:
        raise CacheCorruption("checksum mismatch")
    (key_len,) = struct.unpack_from("<H", body, 0)
    key = body[2:2 + key_len].decode()
    if key != announcement_key(announcement):
        raise CacheCorruption(
            f"announcement mismatch: entry holds {key!r}"
        )
    inflater = zlib.decompressobj()
    payload = memoryview(inflater.decompress(body[2 + key_len:]))
    if not inflater.eof or inflater.unused_data:
        raise CacheCorruption("malformed compressed section")
    num_nodes, rows, routes, hops = _COUNTS.unpack_from(payload, 0)
    offset = _COUNTS.size
    columns = []
    # node ids, choice starts, tiers, path starts, path nodes
    for typecode, count in zip("iibii", (rows, rows + 1, rows,
                                         routes + 1, hops)):
        column = array(typecode)
        end = offset + count * column.itemsize
        if end > len(payload):
            raise CacheCorruption("truncated column")
        column.frombytes(payload[offset:end])
        columns.append(_swapped(column))
        offset = end
    if offset != len(payload):
        raise CacheCorruption("trailing bytes after the last column")
    del payload  # the columns are copies: free the section now
    _, choice_start, tiers, path_start, _ = columns
    if tiers.tobytes().translate(None, bytes(range(1, 6))):
        raise CacheCorruption("invalid preference tier")
    if (choice_start[0] != 0 or choice_start[-1] != routes
            or path_start[0] != 0 or path_start[-1] != hops):
        raise CacheCorruption("offset column does not span its data")
    if rows and min(map(sub, choice_start[1:], choice_start)) < 1:
        raise CacheCorruption("entry holds no routes")
    lengths = list(map(sub, path_start[1:], path_start))
    if routes and min(lengths) < 1:
        raise CacheCorruption("route with an empty path")
    # Within one equal-best set every path has one length, so a length
    # may change only where a row's first route begins.  The sweep emits
    # rows grouped by path length: a LARGE table has about 50 changes.
    for j in compress(range(1, routes), map(ne, lengths[1:], lengths)):
        if choice_start[bisect_left(choice_start, j)] != j:
            raise CacheCorruption("equal-best routes must share one length")
    return RoutingTable(announcement, topology_version, num_nodes, *columns)


def _write_uvarint(out: bytearray, value: int) -> None:
    """Append one unsigned LEB128 varint."""
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _digest_entry(table: RoutingTable) -> bytes:
    """A table in the v2 entry layout (LEB128 varints, row by row).

    The pinned routing digests were taken over this stream, so
    :func:`tables_digest` keeps hashing it: v3 entries would move them.
    """
    body = bytearray()
    key = announcement_key(table.announcement).encode()
    body += struct.pack("<H", len(key)) + key
    _write_uvarint(body, table._num_nodes)
    _write_uvarint(body, len(table._node_ids))
    choice_start, path_start = table._choice_start, table._path_start
    path_nodes = table._path_nodes
    for row, (node_id, tier) in enumerate(zip(table._node_ids, table._tiers)):
        _write_uvarint(body, node_id)
        lo, hi = choice_start[row], choice_start[row + 1]
        _write_uvarint(body, hi - lo)
        for j in range(lo, hi):
            body.append(tier)
            start, end = path_start[j], path_start[j + 1]
            _write_uvarint(body, end - start)
            for k in range(start, end):
                _write_uvarint(body, path_nodes[k])
    checksum = hashlib.sha256(bytes(body)).digest()
    return _HEADER.pack(MAGIC, 2) + checksum + bytes(body)


def tables_digest(tables: Iterable[RoutingTable]) -> str:
    """One hex digest over a sequence of tables, order-sensitive.

    Two runs (serial vs parallel, or two machines warming the same
    cache) computed the same routing state iff their digests match —
    the check CI runs between the serial and ``REPRO_WORKERS=4`` legs.
    """
    hasher = hashlib.sha256()
    for table in tables:
        hasher.update(_digest_entry(table))
    return hasher.hexdigest()


# ----------------------------------------------------------------------
# The cache
# ----------------------------------------------------------------------

@dataclass
class CacheStats:
    """Lifetime counters of one :class:`RoutingTableCache` instance."""

    hits: int = 0
    misses: int = 0
    corrupt: int = 0
    stores: int = 0
    store_errors: int = 0


@dataclass(frozen=True)
class EntrySizeStats:
    """Per-entry size distribution of one on-disk cache directory."""

    count: int
    total_bytes: int
    min_bytes: int
    mean_bytes: float
    max_bytes: int


class RoutingTableCache:
    """Content-addressed store of routing tables under one directory."""

    def __init__(self, directory: "Path | str"):
        self.directory = Path(directory).expanduser()
        self.stats = CacheStats()

    # Executors ship engines (and with them this cache) to workers;
    # only the directory crosses the boundary — stats are per-process.
    def __getstate__(self) -> dict[str, object]:
        return {"directory": self.directory}

    def __setstate__(self, state: dict[str, object]) -> None:
        self.directory = Path(str(state["directory"]))
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    def key_for(self, topology: Topology, announcement: Announcement) -> str:
        material = "|".join((
            str(FORMAT_VERSION),
            topology_hash(topology),
            engine_fingerprint(),
            announcement_key(announcement),
        ))
        return hashlib.sha256(material.encode()).hexdigest()

    def path_for(self, topology: Topology, announcement: Announcement) -> Path:
        return self.directory / (self.key_for(topology, announcement) + SUFFIX)

    # ------------------------------------------------------------------
    def load(
        self, topology: Topology, announcement: Announcement
    ) -> RoutingTable | None:
        """The cached table for an announcement, or None.

        Corrupt entries are deleted and counted; they never propagate.
        """
        path = self.path_for(topology, announcement)
        try:
            blob = path.read_bytes()
        except OSError:
            self.stats.misses += 1
            return None
        try:
            table = decode_table(blob, announcement, topology.version)
        except CacheCorruption:
            self.stats.corrupt += 1
            self.stats.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.stats.hits += 1
        return table

    def store(
        self,
        topology: Topology,
        announcement: Announcement,
        table: RoutingTable,
    ) -> Path | None:
        """Persist a table atomically; returns the entry path, or None.

        Store failures (read-only directory, disk full) are counted and
        swallowed: a broken cache degrades to recomputation, never to a
        failed run.
        """
        path = self.path_for(topology, announcement)
        tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(encode_table(table))
            os.replace(tmp, path)
        except OSError:
            self.stats.store_errors += 1
            try:
                tmp.unlink()
            except OSError:
                pass
            return None
        self.stats.stores += 1
        return path

    # ------------------------------------------------------------------
    def entries(self) -> list[Path]:
        """Every cache entry currently on disk, sorted by name."""
        try:
            return sorted(self.directory.glob(f"*{SUFFIX}"))
        except OSError:
            return []

    def disk_stats(self) -> tuple[int, int]:
        """``(entry count, total bytes)`` of the on-disk store."""
        sizes = self.entry_size_stats()
        return sizes.count, sizes.total_bytes

    def entry_size_stats(self) -> "EntrySizeStats":
        """Per-entry size distribution of the on-disk store.

        One encoded routing table per entry, so these are the on-disk
        bytes-per-table numbers ``repro cache stats`` reports.
        """
        sizes: list[int] = []
        for entry in self.entries():
            try:
                sizes.append(entry.stat().st_size)
            except OSError:
                pass
        if not sizes:
            return EntrySizeStats(0, 0, 0, 0.0, 0)
        return EntrySizeStats(
            count=len(sizes),
            total_bytes=sum(sizes),
            min_bytes=min(sizes),
            mean_bytes=sum(sizes) / len(sizes),
            max_bytes=max(sizes),
        )

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for entry in self.entries():
            try:
                entry.unlink()
                removed += 1
            except OSError:
                pass
        return removed


# ----------------------------------------------------------------------
# Process-wide default cache resolution
# ----------------------------------------------------------------------

_OVERRIDE: RoutingTableCache | None = None
_OVERRIDE_SET = False


def default_cache_dir() -> Path:
    """``$XDG_CACHE_HOME/repro`` (or ``~/.cache/repro``)."""
    base = os.environ.get("XDG_CACHE_HOME", "").strip()
    root = Path(base).expanduser() if base else Path("~/.cache").expanduser()
    return root / "repro"


def set_default_cache(cache: RoutingTableCache | None) -> None:
    """Process-wide override (``--cache-dir``); ``None`` disables caching."""
    global _OVERRIDE, _OVERRIDE_SET
    _OVERRIDE = cache
    _OVERRIDE_SET = True


def clear_default_cache() -> None:
    """Drop any override and return to environment-driven resolution."""
    global _OVERRIDE, _OVERRIDE_SET
    _OVERRIDE = None
    _OVERRIDE_SET = False


def resolve_cache() -> RoutingTableCache | None:
    """The cache new worlds should attach, or None (the default).

    Resolution order: an explicit :func:`set_default_cache` override
    (``--cache-dir``), then ``REPRO_CACHE_DIR=<dir>``.  With neither,
    persistent caching is off and seed behaviour is untouched.
    """
    if _OVERRIDE_SET:
        return _OVERRIDE
    directory = os.environ.get(CACHE_DIR_ENV, "").strip()
    if directory:
        return RoutingTableCache(directory)
    return None
