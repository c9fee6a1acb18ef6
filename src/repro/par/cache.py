"""Persistent on-disk routing-table cache.

A cold ``repro run`` recomputes the exact Gao-Rexford tables the previous
run already produced: the in-process cache on
:class:`repro.routing.engine.RoutingEngine` dies with the process.  This
module gives routing tables a life across processes.

**Keying.**  A cached table is valid exactly when three things match:

- the *topology content hash* — SHA-256 over the canonical JSON document
  of :func:`repro.topology.io.dump_topology` (memoized per topology
  version, so repeated lookups cost a dict probe);
- the *announcement key* — prefix plus every origin site and its
  neighbor restriction, in announcement order;
- the *engine fingerprint* — SHA-256 over the source bytes of every
  module in :data:`FINGERPRINT_MODULES` (the result-relevant closure of
  the compute path), so changing the algorithm silently invalidates
  every table the old code produced.

**Format.**  Entries are versioned binary blobs: a magic/version header,
a SHA-256 checksum, then a compact struct encoding of the equal-best
route sets (node order preserved, so a loaded table is byte-identical to
the one stored).  Writes go to a temp file in the same directory and
are published with an atomic :func:`os.replace`; concurrent writers
(parallel workers warming the same directory) cannot tear an entry.

**Degradation.**  A corrupt, truncated, or foreign file is treated as a
miss, counted, and deleted; a failing store (read-only dir, disk full)
is swallowed and counted.  The cache never makes a run fail.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import struct
import weakref
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from repro.routing.route import Announcement
from repro.routing.table import RoutingTable
from repro.topology.graph import Topology
from repro.topology.io import dump_topology

#: On-disk entry layout version; bump when the binary format changes.
#: v2 is the packed-column format: LEB128 varints for node ids, route
#: counts, and path hops (stub ids near 10001 cost 2 bytes instead of
#: 4), decoded straight into :class:`repro.routing.table
#: .RoutingTable` columns without materializing Route objects.
FORMAT_VERSION = 2

MAGIC = b"RPRT"

#: File extension of cache entries.
SUFFIX = ".rtc"

#: Environment variable naming the cache directory (enables the cache).
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment flag enabling the cache at its default location.
CACHE_FLAG_ENV = "REPRO_CACHE"

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


def topology_hash(topology: Topology) -> str:
    """Content hash of a topology, memoized per ``topology.version``."""
    cached = _TOPO_HASHES.get(topology)
    if cached is not None and cached[0] == topology.version:
        return cached[1]
    document = dump_topology(topology)
    digest = hashlib.sha256(
        json.dumps(document, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    _TOPO_HASHES[topology] = (topology.version, digest)  # repro-lint: disable=fork-global-write -- idempotent content-derived memo
    return digest


#: Every module whose source can change a cached routing table.  The
#: deep-static ``cache-key-gap`` rule diffs this literal tuple against
#: the transitive call closure of ``RoutingEngine.compute_uncached`` and
#: fails the build when a reachable result-relevant module is missing —
#: over-invalidation is safe, silent staleness is not.
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
        _ENGINE_FP = hasher.hexdigest()  # repro-lint: disable=fork-global-write -- idempotent content-derived memo
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

def _write_uvarint(out: bytearray, value: int) -> None:
    """Append one unsigned LEB128 varint."""
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _read_uvarint(body: bytes, offset: int) -> tuple[int, int]:
    """One unsigned LEB128 varint at ``offset``; returns (value, next)."""
    result = 0
    shift = 0
    while True:
        if offset >= len(body):
            raise CacheCorruption("truncated varint")
        byte = body[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 35:
            raise CacheCorruption("oversized varint")


def encode_table(table: RoutingTable) -> bytes:
    """Serialise a routing table to a versioned, checksummed blob.

    Entries are written straight off the packed columns (no Route
    objects), in table row order, so ``encode_table(decode)``
    round-trips byte-identically — the property the serial-vs-parallel
    digest checks build on.
    """
    body = bytearray()
    key = announcement_key(table.announcement).encode()
    body += struct.pack("<H", len(key)) + key
    _write_uvarint(body, table._num_nodes)
    node_ids = table._node_ids
    choice_start = table._choice_start
    tiers = table._tiers
    path_start = table._path_start
    path_nodes = table._path_nodes
    _write_uvarint(body, len(node_ids))
    for row in range(len(node_ids)):
        _write_uvarint(body, node_ids[row])
        lo, hi = choice_start[row], choice_start[row + 1]
        _write_uvarint(body, hi - lo)
        tier = tiers[row]
        for j in range(lo, hi):
            body.append(tier)
            start, end = path_start[j], path_start[j + 1]
            _write_uvarint(body, end - start)
            for k in range(start, end):
                _write_uvarint(body, path_nodes[k])
    checksum = hashlib.sha256(bytes(body)).digest()
    return _HEADER.pack(MAGIC, FORMAT_VERSION) + checksum + bytes(body)


def decode_table(
    blob: bytes, announcement: Announcement, topology_version: int
) -> RoutingTable:
    """Rebuild a routing table from :func:`encode_table` output.

    Raises :class:`CacheCorruption` on any structural defect: bad magic,
    unknown version, checksum mismatch, announcement-key mismatch, or
    truncated/over-long payloads.
    """
    try:
        return _decode_table(blob, announcement, topology_version)
    except CacheCorruption:
        raise
    except (struct.error, ValueError, IndexError) as exc:
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
    offset = 0
    (key_len,) = struct.unpack_from("<H", body, offset)
    offset += 2
    key = body[offset:offset + key_len].decode()
    offset += key_len
    if key != announcement_key(announcement):
        raise CacheCorruption(
            f"announcement mismatch: entry holds {key!r}"
        )
    num_nodes, offset = _read_uvarint(body, offset)
    num_entries, offset = _read_uvarint(body, offset)
    node_ids = array("i")
    tiers = array("b")
    choice_start = array("i", [0])
    path_start = array("i", [0])
    path_nodes = array("i")
    for _ in range(num_entries):
        node_id, offset = _read_uvarint(body, offset)
        num_routes, offset = _read_uvarint(body, offset)
        if num_routes < 1:
            raise CacheCorruption("entry holds no routes")
        entry_tier = -1
        entry_len = -1
        for route_index in range(num_routes):
            if offset >= len(body):
                raise CacheCorruption("truncated route record")
            tier = body[offset]
            offset += 1
            if not 1 <= tier <= 5:
                raise CacheCorruption(f"invalid preference tier {tier}")
            path_len, offset = _read_uvarint(body, offset)
            if path_len < 1:
                raise CacheCorruption("route with an empty path")
            if route_index == 0:
                entry_tier, entry_len = tier, path_len
            elif tier != entry_tier or path_len != entry_len:
                raise CacheCorruption(
                    "equal-best routes must share tier and length"
                )
            for _ in range(path_len):
                hop, offset = _read_uvarint(body, offset)
                path_nodes.append(hop)
            path_start.append(len(path_nodes))
        node_ids.append(node_id)
        tiers.append(entry_tier)
        choice_start.append(len(path_start) - 1)
    if offset != len(body):
        raise CacheCorruption("trailing bytes after the last entry")
    return RoutingTable(
        announcement,
        topology_version,
        num_nodes,
        node_ids,
        choice_start,
        tiers,
        path_start,
        path_nodes,
    )


def tables_digest(tables: Iterable[RoutingTable]) -> str:
    """One hex digest over a sequence of tables, order-sensitive.

    Two runs (serial vs parallel, or two machines warming the same
    cache) computed the same routing state iff their digests match —
    the check CI runs between the serial and ``REPRO_WORKERS=4`` legs.
    """
    hasher = hashlib.sha256()
    for table in tables:
        hasher.update(encode_table(table))
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
        entries = self.entries()
        total = 0
        for entry in entries:
            try:
                total += entry.stat().st_size
            except OSError:
                pass
        return len(entries), total

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

    Resolution order: an explicit :func:`set_default_cache` override,
    then ``REPRO_CACHE_DIR=<dir>``, then ``REPRO_CACHE=1`` at the
    default location.  With none of these, persistent caching is off and
    seed behaviour is untouched.
    """
    if _OVERRIDE_SET:
        return _OVERRIDE
    directory = os.environ.get(CACHE_DIR_ENV, "").strip()
    if directory:
        return RoutingTableCache(directory)
    flag = os.environ.get(CACHE_FLAG_ENV, "").strip().lower()
    if flag in {"1", "true", "yes", "on"}:
        return RoutingTableCache(default_cache_dir())
    return None
