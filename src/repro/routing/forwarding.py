"""From routing tables to geographic forwarding paths and latency.

The routing engine leaves each node with an *equal-best set* of routes
(same preference tier, same AS-path length).  Which member carries a given
packet is decided hop by hop, geographically: the ingress point picks the
equally-good exit nearest its current location (IGP hot-potato), crosses
the chosen adjacency at its nearest interconnect, and repeats at the next
AS.  Path length strictly decreases at every step, so the walk always
terminates at an origin site.

Latency follows the paper's calibration: 100 km of great-circle fiber path
per 1 ms of RTT, plus per-interconnect extra latency (queueing/processing,
sampled at build time) and the client's last-mile latency.

The *penultimate hop* (p-hop) the measurement pipeline geolocates is the
ingress interface of the destination site at the final interconnect —
which lives in CDN infrastructure space for transit/private links but in
IXP space for IXP sessions, reproducing the "p-hop belongs to an IXP and
is invisible in BGP" population of §5.3.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.explain import provenance
from repro.explain.provenance import ExitOption, ForwardingStep, ForwardingTrail
from repro.geo.atlas import City, city_km
from repro.geo.coords import FIBER_KM_PER_MS_RTT, GeoPoint
from repro.netaddr.ipv4 import IPv4Address
from repro.routing.engine import RoutingTable
from repro.topology.flat import flat_adjacency
from repro.topology.graph import Topology


@dataclass(unsafe_hash=True)
class Hop:
    """One traceroute-visible router on a forwarding path."""

    __slots__ = ("addr", "node_id", "city", "ixp_id", "rtt_ms")

    addr: IPv4Address
    node_id: int
    city: City
    ixp_id: int | None
    #: Cumulative RTT from the client to this hop, in milliseconds.
    rtt_ms: float


@dataclass(unsafe_hash=True)
class ForwardingPath:
    """The realised path of one client's traffic toward a prefix."""

    __slots__ = ("node_path", "origin", "hops", "rtt_ms", "distance_km",
                 "dest_city")

    #: Node-level path actually taken, client AS first, origin site last.
    node_path: tuple[int, ...]
    #: The origin site node the traffic lands on (the catchment).
    origin: int
    hops: tuple[Hop, ...]
    #: Total RTT from the client to the destination, in milliseconds.
    rtt_ms: float
    #: Total great-circle distance walked, in kilometres.
    distance_km: float
    #: The destination site's city.
    dest_city: City

    @property
    def penultimate_hop(self) -> Hop | None:
        """The last router before the destination (None for on-net clients)."""
        return self.hops[-1] if self.hops else None

    @property
    def as_hops(self) -> int:
        return len(self.node_path) - 1


def site_city(topology: Topology, node_id: int) -> City:
    """The city of a (single-PoP) site node; first PoP for multi-PoP nodes."""
    return topology.node(node_id).pops[0].city


def walk(
    topology: Topology,
    table: RoutingTable,
    start_node: int,
    start_point: GeoPoint,
    last_mile_ms: float = 0.0,
    primary_only: bool = False,
    hops: list[Hop] | None = None,
) -> tuple[int, float, float] | None:
    """Walk a client's traffic to its catchment: ``(origin, rtt_ms, km)``.

    Returns None when the client's AS holds no route to the prefix.
    Each hop reads the node's equal-best next hops off the table
    (memoized per table and node) and takes the one whose exit
    (memoized on the topology's
    :class:`~repro.topology.flat.FlatAdjacency`) lies nearest the
    packet's current point, ties to the lower node id.  A node with one
    next hop has nothing to compare, so outside a provenance capture the
    walk takes its exit directly.  Kilometres and per-interconnect
    latencies are summed in walk order, and the last leg (from the last
    interconnect city to the site's city) comes from the atlas's
    city-pair table, so the floats do not depend on whether an exit or
    a distance was a memo hit.  A walk of no hops measures its last leg
    from the client's own point.

    ``last_mile_ms`` and ``primary_only`` are as for
    :func:`trace_forwarding_path`.  ``hops``, when given, receives the
    traceroute-visible ingress interface of every node after the first;
    a ping passes None and builds nothing per hop.
    """
    if last_mile_ms < 0:
        raise ValueError(f"last-mile latency must be non-negative: {last_mile_ms!r}")
    next_hops_at = table.next_hops_at
    next_hops = next_hops_at(start_node)
    if next_hops is None:
        obs.counter.inc("forwarding.unreachable")
        return None
    obs.counter.inc("forwarding.walks")
    adjacency = flat_adjacency(topology)
    prov = provenance.active()
    steps: list[ForwardingStep] = []
    node = start_node
    point = start_point
    city = None
    total_km = 0.0
    extra_ms = last_mile_ms
    hop_count = 0
    hot_potato_exit = adjacency.hot_potato_exit
    while next_hops:
        pick = 0
        if len(next_hops) == 1 and prov is None:
            # Nothing to compare and no trail to record.
            exit_ = hot_potato_exit(node, next_hops[0], point, city)
        else:
            exits = [hot_potato_exit(node, next_hop, point, city)
                     for next_hop in next_hops]
            if not primary_only:
                for i in range(1, len(exits)):
                    if ((exits[i].km, next_hops[i])
                            < (exits[pick].km, next_hops[pick])):
                        pick = i
            if prov is not None:
                steps.append(ForwardingStep(
                    node_id=node,
                    options=tuple(
                        ExitOption(
                            next_hop=next_hop,
                            ic_city=option.interconnect.city.iata,
                            km=option.km,
                            chosen=i == pick,
                        )
                        for i, (next_hop, option)
                        in enumerate(zip(next_hops, exits))
                    ),
                ))
            exit_ = exits[pick]
        ic = exit_.interconnect
        total_km += exit_.walk_km
        city = ic.city
        point = city.location
        extra_ms += ic.extra_ms
        node = next_hops[pick]
        hop_count += 1
        if hops is not None:
            hops.append(Hop(
                addr=exit_.addr,
                node_id=node,
                city=city,
                ixp_id=exit_.ixp_id,
                rtt_ms=total_km / FIBER_KM_PER_MS_RTT + extra_ms,
            ))
        next_hops = next_hops_at(node)
        if next_hops is None:  # pragma: no cover - engine guarantees continuity
            return None
    dest = site_city(topology, node)
    total_km += (point.distance_km(dest.location) if city is None
                 else city_km(city, dest))
    obs.counter.inc("forwarding.hops", hop_count)
    if prov is not None:
        prov.record_forwarding(ForwardingTrail(
            prefix=str(table.prefix),
            start_node=start_node,
            origin=node,
            steps=tuple(steps),
        ))
    return node, total_km / FIBER_KM_PER_MS_RTT + extra_ms, total_km


def trace_forwarding_path(
    topology: Topology,
    table: RoutingTable,
    start_node: int,
    start_point: GeoPoint,
    last_mile_ms: float = 0.0,
    primary_only: bool = False,
) -> ForwardingPath | None:
    """Walk a client's traffic from ``start_node`` to its catchment site.

    Returns None when the client's AS holds no route to the prefix.
    ``last_mile_ms`` is the client's access latency (RTT), added once.
    The returned hops are the ingress interfaces of each successive node,
    which is what traceroute shows.

    ``primary_only`` disables per-ingress hot-potato resolution: every
    node forwards along its single advertised (primary) route, as a
    one-route-per-AS model would.  It exists for the ablation that
    quantifies how much the equal-best/hot-potato model matters (see
    ``docs/modeling.md`` §3); leave it off for faithful behaviour.
    """
    hops: list[Hop] = []
    landing = walk(
        topology, table, start_node, start_point, last_mile_ms,
        primary_only=primary_only, hops=hops,
    )
    if landing is None:
        return None
    origin, rtt_ms, total_km = landing
    return ForwardingPath(
        node_path=(start_node, *(hop.node_id for hop in hops)),
        origin=origin,
        hops=tuple(hops),
        rtt_ms=rtt_ms,
        distance_km=total_km,
        dest_city=site_city(topology, origin),
    )
