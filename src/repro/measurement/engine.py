"""Ping / traceroute execution from probes over the routed topology.

The engine binds together the routing layer and the probe population:

- a :class:`ServiceRegistry` records which announcement owns each service
  address, the way the real Internet's routing tables do;
- :meth:`MeasurementEngine.ping_many` pings one target from a set of
  probes: it finds the routing table behind the target, walks each
  probe's traffic geographically to its landing site (no hops kept),
  and reports the path's RTT with deterministic per-(probe, target,
  salt) jitter — re-measuring the same target from the same probe gives
  the same value, while two prefixes served from the same site via the
  same path differ slightly (the §5.3 "same path, different RTT" noise);
- :meth:`MeasurementEngine.traceroute_many` additionally reports hops,
  with a deterministic fraction of silent routers (the paper's
  invalid-p-hop traces, filtered in §5.3).

**Measure per target.**  The paper's estimators measure a whole probe
set against one target at a time, and so does every caller here.  A
batch does the per-target work once — it resolves the target's routing
table and walk memo, reads the provenance slot, builds the jitter's
hash input around the probe id and opens one ``measurement.ping_many``
or ``measurement.traceroute_many`` span — and then loops over the
probes.  Results come back keyed by probe id, in probe order.
:meth:`MeasurementEngine.ping` and :meth:`MeasurementEngine.traceroute`
are batches of one probe.

**Measure once.**  Where a probe's traffic lands depends only on the
target's routing table and on what the walk reads from the probe (its
AS, location and last mile); a campaign seed or a hostname salt changes
only the multiplicative jitter.  So the engine walks each (table, probe)
path once and keeps the seed-free outcome in a :class:`ForwardingMemo`
— a landing for a ping, the whole :class:`ForwardingPath` for a
traceroute — and applies the jitter on top, which leaves every RTT float
bit-identical to a fresh walk.  :meth:`MeasurementEngine.campaign`
derives an engine for another campaign seed that shares the memo and the
routing engine.  ``docs/performance.md`` ("Measure once") covers the
memo's key, lifetime and invalidation.

**Cheap records, no collector passes.**  A batch builds several records
per probe, so :class:`PingResult`, :class:`TracerouteHop` and
:class:`TracerouteResult` (like ``Hop`` and ``ForwardingPath`` on the
forwarding side) declare ``__slots__`` by hand and take
``unsafe_hash=True`` instead of ``frozen=True``: construction costs
less than half as much, while ``repr``, equality, hashing, field names and
pickling stay as they were.  (``dataclass(slots=True)`` would need
Python 3.10.)  Each batch also runs with the cyclic garbage collector
paused and gives the caller's setting back on every exit: its records
hold no reference cycle, so reference counting frees everything and the
collector's passes over the world would find nothing.
``docs/performance.md`` ("Measurement records and the collector") has
the measurements.
"""

from __future__ import annotations

import copy
import gc
import hashlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

from repro import obs
from repro.explain import provenance
from repro.measurement.probes import Probe
from repro.netaddr.ipv4 import IPv4Address
from repro.routing.engine import RoutingEngine, RoutingTable
from repro.routing.forwarding import ForwardingPath, Hop, trace_forwarding_path, walk
from repro.routing.route import Announcement
from repro.topology.graph import Topology

#: What a forwarding walk reads from a probe: AS, location (latitude,
#: longitude), last mile.  Plain numbers, not the ``GeoPoint``: a float
#: tuple hashes in C, a dataclass's hash is a Python call per lookup.
WalkKey = tuple[int, float, float, float]
#: A memoized walk: ``(origin, rtt_ms)`` from a ping, the full path from
#: a traceroute, or None when the probe's AS holds no route.
WalkOutcome = Union[tuple[int, float], ForwardingPath, None]
#: One routing table's walk memo.
WalkMemo = dict[WalkKey, WalkOutcome]

#: Divides the first 8 bytes of a SHA-256 digest into [0, 1).
_TWO_64 = float(1 << 64)


@dataclass(unsafe_hash=True)
class PingResult:
    """Outcome of one ping measurement."""

    __slots__ = ("probe_id", "target", "rtt_ms", "catchment")

    probe_id: int
    target: IPv4Address
    #: None when the probe's AS holds no route to the target.
    rtt_ms: float | None
    #: Origin site node id of the route used (the catchment), or None.
    catchment: int | None

    @property
    def reachable(self) -> bool:
        return self.rtt_ms is not None


@dataclass(unsafe_hash=True)
class TracerouteHop:
    """One line of traceroute output."""

    __slots__ = ("ttl", "addr", "rtt_ms")

    ttl: int
    #: None when the router did not respond ("* * *").
    addr: IPv4Address | None
    rtt_ms: float | None


@dataclass(unsafe_hash=True)
class TracerouteResult:
    """Outcome of one traceroute measurement."""

    __slots__ = ("probe_id", "target", "hops", "reached", "path")

    probe_id: int
    target: IPv4Address
    hops: tuple[TracerouteHop, ...]
    reached: bool
    #: The forwarding path behind the measurement (simulator ground truth,
    #: not visible to analysis code that plays by the paper's rules).
    path: ForwardingPath | None

    @property
    def penultimate_hop(self) -> TracerouteHop | None:
        """The hop before the destination, or None if it did not respond.

        Traces whose p-hop is missing are the "no valid p-hop" traces the
        paper filters out (§5.3).
        """
        if not self.reached or len(self.hops) < 2:
            return None
        hop = self.hops[-2]
        return hop if hop.addr is not None else None


class ServiceRegistry:
    """Maps service addresses to the announcement that serves them.

    Lookups use longest-prefix match over the registered prefixes (a
    binary trie keyed on address bits), exactly like a FIB: any address
    inside a registered prefix resolves to its announcement, and more
    specific prefixes shadow less specific ones.
    """

    def __init__(self) -> None:
        self._by_addr: dict[IPv4Address, Announcement] = {}
        # Binary trie node: [zero_child, one_child, announcement|None].
        self._trie: list = [None, None, None]
        self._count = 0

    def register(self, announcement: Announcement) -> None:
        """Register an announcement under its prefix."""
        addr = announcement.prefix.address(1)
        existing = self._by_addr.get(addr)
        if existing is not None and existing != announcement:
            raise ValueError(f"service address {addr} already registered")
        if existing is None:
            self._by_addr[addr] = announcement
            self._trie_insert(announcement)
            self._count += 1

    def _trie_insert(self, announcement: Announcement) -> None:
        prefix = announcement.prefix
        node = self._trie
        for i in range(prefix.length):
            bit = (prefix.network >> (31 - i)) & 1
            if node[bit] is None:
                node[bit] = [None, None, None]
            node = node[bit]
        if node[2] is not None and node[2] != announcement:
            raise ValueError(f"prefix {prefix} already registered")
        node[2] = announcement

    def lookup(self, addr: IPv4Address) -> Announcement | None:
        """Longest-prefix match for an address."""
        node = self._trie
        best: Announcement | None = node[2]
        value = addr.value
        for i in range(32):
            bit = (value >> (31 - i)) & 1
            node = node[bit]
            if node is None:
                break
            if node[2] is not None:
                best = node[2]
        return best

    def announcements(self) -> list[Announcement]:
        return list(self._by_addr.values())

    def __len__(self) -> int:
        return self._count


class ForwardingMemo:
    """Seed-free forwarding outcomes, shared by an engine and its campaigns.

    - ``targets`` resolves a service address to its routing table and
      that table's walk memo, so a measurement skips the registry trie
      and the routing-cache lookup.  It holds the registry size and
      topology version it was filled under (``snapshot``) and is emptied
      when either changes.
    - ``walks`` keys each table's memo on ``(announcement, topology
      version)``: two addresses of one prefix share it, and a table of an
      older topology never serves a walk.
    - ``silent`` records, per router interface, whether it answers
      traceroute — a property of the router, not of a campaign.  It is
      keyed on the address's integer, which hashes in C; an
      ``IPv4Address`` key costs a Python ``__hash__`` call per hop.
    """

    def __init__(self) -> None:
        self.snapshot: tuple[int, int] | None = None
        self.targets: dict[IPv4Address, tuple[RoutingTable, WalkMemo] | None] = {}
        self.walks: dict[tuple[Announcement, int], WalkMemo] = {}
        self.silent: dict[int, bool] = {}

    def entries(self) -> int:
        """Memoized walks over every table: landings plus paths."""
        return sum(len(memo) for memo in self.walks.values())


class MeasurementEngine:
    """Executes measurements from probes."""

    def __init__(
        self,
        topology: Topology,
        registry: ServiceRegistry,
        seed: int = 0,
        jitter_fraction: float = 0.04,
        hop_silent_fraction: float = 0.02,
        hop_silence_seed: int = 0,
    ):
        self._topology = topology
        self._registry = registry
        self._routing = RoutingEngine(topology)
        self._seed = seed
        self._jitter_fraction = jitter_fraction
        self._hop_silent_fraction = hop_silent_fraction
        # Router unresponsiveness is a property of the *router*, not of a
        # measurement campaign: it uses its own seed so two engines with
        # different campaign seeds see the same silent routers.
        self._hop_silence_seed = hop_silence_seed
        self._memo = ForwardingMemo()

    @property
    def routing(self) -> RoutingEngine:
        return self._routing

    @property
    def registry(self) -> ServiceRegistry:
        return self._registry

    @property
    def memo(self) -> ForwardingMemo:
        return self._memo

    def campaign(self, seed: int) -> "MeasurementEngine":
        """This engine under another campaign seed.

        The copy shares the registry, the routing engine and the
        forwarding memo, so it lands every probe where this engine does
        and walks nothing this engine already walked; only the jitter
        differs.
        """
        engine = copy.copy(self)
        engine._seed = seed
        return engine

    # ------------------------------------------------------------------
    def _target(self, addr: IPv4Address) -> tuple[RoutingTable, WalkMemo] | None:
        """The routing table behind an address and its walk memo."""
        memo = self._memo
        version = self._topology.version
        snapshot = (len(self._registry), version)
        if memo.snapshot != snapshot:
            memo.targets.clear()
            memo.walks = {
                key: walks for key, walks in memo.walks.items()
                if key[1] == version
            }
            memo.snapshot = snapshot
        try:
            return memo.targets[addr]
        except KeyError:
            pass
        announcement = self._registry.lookup(addr)
        target: tuple[RoutingTable, WalkMemo] | None = None
        if announcement is not None:
            target = (
                self._routing.compute(announcement),
                memo.walks.setdefault((announcement, version), {}),
            )
        memo.targets[addr] = target
        return target

    def table_for(self, addr: IPv4Address) -> RoutingTable | None:
        target = self._target(addr)
        return None if target is None else target[0]

    def ping_many(
        self, probes: Sequence[Probe], addr: IPv4Address, salt: object = None
    ) -> dict[int, PingResult]:
        """Ping a service address from each probe, keyed by probe id in
        probe order.

        ``salt`` differentiates otherwise identical measurement campaigns
        (e.g. two hostnames resolving to the same addresses, Appendix C):
        the same (probe, address, salt) always measures the same RTT.
        A probe walks only when the memo holds nothing under its walk
        key, or a provenance capture needs the trail; the walk's landing
        ``(origin, rtt_ms)`` is kept, and a traceroute's path serves as
        one.
        """
        attrs = {} if salt is None else {"salt": salt}
        with obs.span("measurement.ping_many", addr=str(addr),
                      probes=len(probes), **attrs), _collector_paused():
            target = self._target(addr)
            if target is None:
                return {
                    p.probe_id: PingResult(probe_id=p.probe_id, target=addr,
                                           rtt_ms=None, catchment=None)
                    for p in probes
                }
            table, walks = target
            topology = self._topology
            prov = provenance.active()
            head, tail = self._jitter_affixes(addr, salt)
            fraction = self._jitter_fraction
            results: dict[int, PingResult] = {}
            for probe in probes:
                location = probe.location
                key = (probe.as_node, location.lat, location.lon,
                       probe.last_mile_ms)
                outcome = walks.get(key)
                if (outcome is None and key not in walks) or prov is not None:
                    found = walk(topology, table, probe.as_node, location,
                                 last_mile_ms=probe.last_mile_ms)
                    # Keep a traceroute's path: it carries the same landing.
                    outcome = walks.setdefault(
                        key, None if found is None else found[:2]
                    )
                probe_id = probe.probe_id
                if outcome is None:
                    results[probe_id] = PingResult(
                        probe_id=probe_id, target=addr, rtt_ms=None,
                        catchment=None,
                    )
                    continue
                if isinstance(outcome, ForwardingPath):
                    # The same walk() return a ping's own walk would give.
                    origin, rtt_ms = outcome.origin, outcome.rtt_ms
                else:
                    origin, rtt_ms = outcome
                results[probe_id] = PingResult(
                    probe_id=probe_id,
                    target=addr,
                    rtt_ms=rtt_ms * _rtt_scale(f"{head}{probe_id}{tail}",
                                               fraction),
                    catchment=origin,
                )
            return results

    def traceroute_many(
        self, probes: Sequence[Probe], addr: IPv4Address
    ) -> dict[int, TracerouteResult]:
        """Traceroute to a service address from each probe, keyed by
        probe id in probe order.

        A probe walks unless the memo holds its path or a stored
        "unreachable" (a ping's landing lacks the hops), or whenever a
        provenance capture needs the trail; the walk's path is kept.
        """
        with obs.span("measurement.traceroute_many", addr=str(addr),
                      probes=len(probes)), _collector_paused():
            target = self._target(addr)
            if target is None:
                return {
                    p.probe_id: TracerouteResult(
                        probe_id=p.probe_id, target=addr, hops=(),
                        reached=False, path=None,
                    )
                    for p in probes
                }
            table, walks = target
            topology = self._topology
            prov = provenance.active()
            head, tail = self._jitter_affixes(addr, None)
            fraction = self._jitter_fraction
            hop_silent = self._hop_silent
            results: dict[int, TracerouteResult] = {}
            for probe in probes:
                location = probe.location
                key = (probe.as_node, location.lat, location.lon,
                       probe.last_mile_ms)
                path = walks.get(key)
                if (isinstance(path, tuple) or prov is not None
                        or (path is None and key not in walks)):
                    path = walks[key] = trace_forwarding_path(
                        topology, table, probe.as_node, location,
                        last_mile_ms=probe.last_mile_ms,
                    )
                probe_id = probe.probe_id
                if path is None:
                    results[probe_id] = TracerouteResult(
                        probe_id=probe_id, target=addr, hops=(),
                        reached=False, path=None,
                    )
                    continue
                scale = _rtt_scale(f"{head}{probe_id}{tail}", fraction)
                hops = [
                    TracerouteHop(ttl=ttl, addr=None, rtt_ms=None)
                    if hop_silent(hop)
                    else TracerouteHop(ttl=ttl, addr=hop.addr,
                                       rtt_ms=hop.rtt_ms * scale)
                    for ttl, hop in enumerate(path.hops, start=1)
                ]
                hops.append(TracerouteHop(
                    ttl=len(path.hops) + 1, addr=addr,
                    rtt_ms=path.rtt_ms * scale,
                ))
                results[probe_id] = TracerouteResult(
                    probe_id=probe_id,
                    target=addr,
                    hops=tuple(hops),
                    reached=True,
                    path=path,
                )
            return results

    def ping(self, probe: Probe, addr: IPv4Address, salt: object = None) -> PingResult:
        """One ping from a probe to a service address: a batch of one."""
        return self.ping_many([probe], addr, salt)[probe.probe_id]

    def traceroute(self, probe: Probe, addr: IPv4Address) -> TracerouteResult:
        """One traceroute from a probe to a service address: a batch of
        one."""
        return self.traceroute_many([probe], addr)[probe.probe_id]

    # ------------------------------------------------------------------
    def _jitter_affixes(self, addr: IPv4Address, salt: object) -> tuple[str, str]:
        """The jitter's hash input before and after the probe id.

        ``f"{head}{probe_id}{tail}"`` is ``"seed|jitter|probe_id|addr|salt"``,
        each part as ``str`` gives it.
        """
        return f"{self._seed!s}|jitter|", f"|{addr!s}|{salt!s}"

    def _hop_silent(self, hop: Hop) -> bool:
        """Whether a router interface never answers traceroute (memoized)."""
        key = hop.addr.value
        silent = self._memo.silent.get(key)
        if silent is None:
            digest = hashlib.sha256(
                f"silent|{self._hop_silence_seed}|{hop.addr}".encode()
            ).digest()
            u = int.from_bytes(digest[:8], "big") / _TWO_64
            silent = self._memo.silent[key] = u < self._hop_silent_fraction
        return silent


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Run the body with the cyclic garbage collector off, then restore
    the caller's setting, whether the body returns or raises.

    A traceroute batch keeps about ten acyclic objects per probe; left
    on, the collector would count them and traverse every tracked object
    of the world many times, to find nothing.  Reference counting still frees
    whatever the batch drops.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _rtt_scale(text: str, fraction: float) -> float:
    """``1 + j`` for the symmetric jitter ``j`` in [-fraction, +fraction]
    that SHA-256 of ``text`` draws, deterministically."""
    digest = hashlib.sha256(text.encode()).digest()
    u = int.from_bytes(digest[:8], "big") / _TWO_64
    return 1.0 + (2.0 * u - 1.0) * fraction
