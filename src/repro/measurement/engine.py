"""Ping / traceroute execution from probes over the routed topology.

The engine binds together the routing layer and the probe population:

- a :class:`ServiceRegistry` records which announcement owns each service
  address, the way the real Internet's routing tables do;
- :meth:`MeasurementEngine.ping` resolves the probe's AS, looks up its
  selected route toward the target's announcement, walks it
  geographically (keeping only the landing site and RTT, no hops), and
  reports an RTT with deterministic per-(probe, target) jitter —
  re-measuring the same target from the same probe gives the same value,
  while two prefixes served from the same site via the same path differ
  slightly (the §5.3 "same path, different RTT" noise);
- :meth:`MeasurementEngine.traceroute` additionally reports hops, with a
  deterministic fraction of silent routers (the paper's invalid-p-hop
  traces, filtered in §5.3).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.measurement.probes import Probe
from repro.netaddr.ipv4 import IPv4Address
from repro.routing.engine import RoutingEngine, RoutingTable
from repro.routing.forwarding import ForwardingPath, Hop, trace_forwarding_path, walk
from repro.routing.route import Announcement
from repro.topology.graph import Topology


@dataclass(frozen=True)
class PingResult:
    """Outcome of one ping measurement."""

    probe_id: int
    target: IPv4Address
    #: None when the probe's AS holds no route to the target.
    rtt_ms: float | None
    #: Origin site node id of the route used (the catchment), or None.
    catchment: int | None

    @property
    def reachable(self) -> bool:
        return self.rtt_ms is not None


@dataclass(frozen=True)
class TracerouteHop:
    """One line of traceroute output."""

    ttl: int
    #: None when the router did not respond ("* * *").
    addr: IPv4Address | None
    rtt_ms: float | None


@dataclass(frozen=True)
class TracerouteResult:
    """Outcome of one traceroute measurement."""

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

    @property
    def routing(self) -> RoutingEngine:
        return self._routing

    @property
    def registry(self) -> ServiceRegistry:
        return self._registry

    # ------------------------------------------------------------------
    def table_for(self, addr: IPv4Address) -> RoutingTable | None:
        announcement = self._registry.lookup(addr)
        if announcement is None:
            return None
        return self._routing.compute(announcement)

    def forwarding_path(self, probe: Probe, addr: IPv4Address) -> ForwardingPath | None:
        """The geographic path a probe's traffic takes toward an address."""
        table = self.table_for(addr)
        if table is None:
            return None
        return trace_forwarding_path(
            self._topology,
            table,
            probe.as_node,
            probe.location,
            last_mile_ms=probe.last_mile_ms,
        )

    def ping(self, probe: Probe, addr: IPv4Address, salt: object = None) -> PingResult:
        """One ping from a probe to a service address.

        ``salt`` differentiates otherwise identical measurement campaigns
        (e.g. two hostnames resolving to the same addresses, Appendix C):
        the same (probe, address, salt) always measures the same RTT.
        """
        table = self.table_for(addr)
        landing = None if table is None else walk(
            self._topology,
            table,
            probe.as_node,
            probe.location,
            last_mile_ms=probe.last_mile_ms,
        )
        if landing is None:
            return PingResult(probe_id=probe.probe_id, target=addr,
                              rtt_ms=None, catchment=None)
        origin, rtt_ms, _ = landing
        rtt = rtt_ms * (1.0 + self._jitter(probe.probe_id, addr, salt))
        return PingResult(
            probe_id=probe.probe_id,
            target=addr,
            rtt_ms=rtt,
            catchment=origin,
        )

    def traceroute(self, probe: Probe, addr: IPv4Address) -> TracerouteResult:
        """One traceroute from a probe to a service address."""
        path = self.forwarding_path(probe, addr)
        if path is None:
            return TracerouteResult(
                probe_id=probe.probe_id, target=addr, hops=(), reached=False, path=None
            )
        jitter = 1.0 + self._jitter(probe.probe_id, addr)
        hops: list[TracerouteHop] = []
        for ttl, hop in enumerate(path.hops, start=1):
            if self._hop_silent(hop):
                hops.append(TracerouteHop(ttl=ttl, addr=None, rtt_ms=None))
            else:
                hops.append(
                    TracerouteHop(ttl=ttl, addr=hop.addr, rtt_ms=hop.rtt_ms * jitter)
                )
        hops.append(
            TracerouteHop(ttl=len(path.hops) + 1, addr=addr, rtt_ms=path.rtt_ms * jitter)
        )
        return TracerouteResult(
            probe_id=probe.probe_id,
            target=addr,
            hops=tuple(hops),
            reached=True,
            path=path,
        )

    # ------------------------------------------------------------------
    def _hash01(self, *parts: object) -> float:
        digest = hashlib.sha256(
            "|".join(str(p) for p in (self._seed, *parts)).encode()
        ).digest()
        return int.from_bytes(digest[:8], "big") / float(1 << 64)

    def _jitter(self, probe_id: int, addr: IPv4Address, salt: object = None) -> float:
        """Symmetric multiplicative jitter in [-f, +f], deterministic."""
        u = self._hash01("jitter", probe_id, addr, salt)
        return (2.0 * u - 1.0) * self._jitter_fraction

    def _hop_silent(self, hop: Hop) -> bool:
        """Whether a router interface never answers traceroute."""
        digest = hashlib.sha256(
            f"silent|{self._hop_silence_seed}|{hop.addr}".encode()
        ).digest()
        u = int.from_bytes(digest[:8], "big") / float(1 << 64)
        return u < self._hop_silent_fraction
