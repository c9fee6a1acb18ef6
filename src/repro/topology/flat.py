"""Flat int-indexed adjacency: the routing engine's hot-path view.

The :class:`~repro.topology.graph.Topology` container is built for
mutation and attribution — dicts of lists, dataclass nodes, per-link
interconnect objects.  The Gao-Rexford sweep only needs three things per
node: its providers, its customers, and its peers with their preference
tier.  :class:`FlatAdjacency` packs exactly that into CSR-style
``array('i')`` columns, built once per topology version and memoized, so
the three-pass engine iterates int arrays instead of chasing object
graphs — and so forked workers inherit one compact, copy-on-write block
instead of touching (and copying) the object topology's refcounts.

Neighbor order inside each CSR row is the *insertion order* of the
underlying topology's adjacency lists.  The engine's results are
insertion-order sensitive (equal-best sets preserve discovery order
before the hot-potato sort), so this mirroring keeps every routing
digest tied to the topology's own adjacency order.

The exit-kilometre metric (nearest PoP to nearest link interconnect —
the hot-potato tie-break) is served from a per-adjacency memo whose
distances come from the atlas's city-pair table
(:func:`repro.geo.atlas.city_km`), filled lazily or all at once via
:meth:`FlatAdjacency.precompute_km` before a fan-out forks workers.

The forwarding plane keeps a second memo here: the hot-potato exit of
every ``(node, next hop, point)`` a walk has crossed (see
:meth:`FlatAdjacency.hot_potato_exit`).  After its first hop a packet
always sits at an interconnect city, a finite set, so a few thousand
entries serve every ping and traceroute of a run.  Like the exit-km
memo it lives and dies with one topology version, and every routing
table shares it.
"""

from __future__ import annotations

import weakref
from array import array
from typing import TYPE_CHECKING, NamedTuple

from repro.geo.atlas import city_km
from repro.topology.asys import Interconnect, LinkKind

if TYPE_CHECKING:
    from repro.geo.atlas import City
    from repro.geo.coords import GeoPoint
    from repro.netaddr.ipv4 import IPv4Address
    from repro.topology.graph import Topology


class HotPotatoExit(NamedTuple):
    """Where a packet at ``point`` leaves a node toward one next hop."""

    #: The link interconnect nearest ``point`` (ties: lowest ``addr_a``
    #: string).
    interconnect: Interconnect
    #: The next hop's interface at that interconnect (what traceroute
    #: shows).
    addr: "IPv4Address"
    #: IXP whose fabric carries the link, or None.
    ixp_id: int | None
    #: Interconnect -> point km: the hot-potato tie-break among exits.
    km: float
    #: Point -> interconnect km: what the walk adds to its distance.
    walk_km: float


class FlatAdjacency:
    """CSR provider/customer/peer arrays over one topology version."""

    __slots__ = (
        "version",
        "num_nodes",
        "node_ids",
        "row",
        "prov_ptr",
        "prov_ids",
        "cust_ptr",
        "cust_ids",
        "peer_ptr",
        "peer_ids",
        "peer_tiers",
        "km",
        "_exits",
        "_topology_ref",
        "__weakref__",
    )

    def __init__(self, topology: "Topology"):
        # Imported here: the routing package imports this module (its
        # forwarding walk reads the exit memo).
        from repro.routing.route import PrefTier

        self.version = topology.version
        self.num_nodes = topology.num_nodes
        # Weak: the memo in flat_adjacency() keys on the topology, so a
        # strong back-reference here would make every entry immortal.
        self._topology_ref: "weakref.ref[Topology]" = weakref.ref(topology)
        ids = [node.node_id for node in topology.nodes()]
        self.node_ids = array("i", ids)
        #: node id -> CSR row: a node's providers are
        #: ``prov_ids[prov_ptr[row]:prov_ptr[row + 1]]``, and likewise
        #: its customers and its peers (with ``peer_tiers`` alongside).
        self.row = {node_id: row for row, node_id in enumerate(ids)}
        rs_tier = int(PrefTier.RS_PEER)
        peer_tier = int(PrefTier.PEER)
        prov_ptr = array("i", [0])
        prov_ids = array("i")
        cust_ptr = array("i", [0])
        cust_ids = array("i")
        peer_ptr = array("i", [0])
        peer_ids = array("i")
        peer_tiers = array("b")
        for node_id in ids:
            prov_ids.extend(topology.providers_of(node_id))
            prov_ptr.append(len(prov_ids))
            cust_ids.extend(topology.customers_of(node_id))
            cust_ptr.append(len(cust_ids))
            for neighbor, kind in topology.peers_of(node_id):
                peer_ids.append(neighbor)
                peer_tiers.append(
                    rs_tier if kind is LinkKind.PEER_ROUTE_SERVER else peer_tier
                )
            peer_ptr.append(len(peer_ids))
        self.prov_ptr = prov_ptr
        self.prov_ids = prov_ids
        self.cust_ptr = cust_ptr
        self.cust_ids = cust_ids
        self.peer_ptr = peer_ptr
        self.peer_ids = peer_ids
        #: ``PrefTier`` int of each ``peer_ids`` entry.
        self.peer_tiers = peer_tiers
        #: ``(node << 32) | neighbor`` -> exit km; filled lazily (or all
        #: at once by :meth:`precompute_km`).
        self.km: dict[int, float] = {}
        #: point ``(lat, lon)`` -> ``(node << 32) | next_hop`` ->
        #: hot-potato exit; filled by forwarding walks.  Keyed on the
        #: coordinates: a float pair hashes in C, a ``GeoPoint``'s
        #: dataclass hash is a Python call on every hop.
        self._exits: dict[tuple[float, float], dict[int, HotPotatoExit]] = {}

    # ------------------------------------------------------------------
    def exit_km(self, node_id: int, neighbor_id: int) -> float:
        """Hot-potato metric: km from the node's nearest PoP to the
        closest interconnect of its link toward ``neighbor_id``.

        The same min over interconnect x PoP city pairs, rounded to 3
        decimals, that :func:`repro.lint.invariants._exit_km`
        recomputes independently.
        """
        key = (node_id << 32) | neighbor_id
        km = self.km.get(key)
        if km is None:
            topology = self._topology()
            link = topology.link_between(node_id, neighbor_id)
            pops = topology.node(node_id).pops
            km = min([
                city_km(ic.city, pop.city)
                for ic in link.interconnects
                for pop in pops
            ])
            km = round(km, 3)
            self.km[key] = km
        return km

    def _topology(self) -> "Topology":
        topology = self._topology_ref()
        if topology is None:
            raise RuntimeError(
                "FlatAdjacency outlived its topology; exit lookups need "
                "the source graph"
            )
        return topology

    def hot_potato_exit(
        self,
        node_id: int,
        next_hop: int,
        point: "GeoPoint",
        city: "City | None" = None,
    ) -> HotPotatoExit:
        """The exit of ``node_id``'s link toward ``next_hop`` nearest
        ``point``, memoized per ``(node, next hop, point)``.

        ``city`` is the interconnect city the packet sits at, whose
        location is ``point``, or None for a probe's own point.  From a
        city both distances come from the atlas's city-pair table
        (:func:`repro.geo.atlas.city_km`); from a probe's point they are
        computed directly.  Either way each is stored as the walk
        computed it, in its own direction: the walk compares ``km`` and
        adds ``walk_km``, so replaying the memo reproduces every RTT
        float bit for bit.
        """
        where = (point.lat, point.lon)
        memo = self._exits.get(where)
        if memo is None:
            memo = self._exits[where] = {}
        key = (node_id << 32) | next_hop
        exit_ = memo.get(key)
        if exit_ is None:
            link = self._topology().link_between(node_id, next_hop)
            if city is None:
                ic = min(
                    link.interconnects,
                    key=lambda ic: (ic.city.location.distance_km(point),
                                    str(ic.addr_a)),
                )
                km = ic.city.location.distance_km(point)
                walk_km = point.distance_km(ic.city.location)
            else:
                ic = min(
                    link.interconnects,
                    key=lambda ic: (city_km(ic.city, city), str(ic.addr_a)),
                )
                km = city_km(ic.city, city)
                walk_km = city_km(city, ic.city)
            exit_ = memo[key] = HotPotatoExit(
                interconnect=ic,
                addr=link.addr_of(next_hop, ic),
                ixp_id=link.ixp_id,
                km=km,
                walk_km=walk_km,
            )
        return exit_

    def exit_count(self) -> int:
        """Entries in the hot-potato exit memo."""
        return sum(len(memo) for memo in self._exits.values())

    def precompute_km(self) -> int:
        """Fill the exit-km memo for every directed link end.

        Called by the parallel plane before forking so workers inherit a
        complete memo copy-on-write instead of each recomputing (and
        privately copying) it.  Returns the memo size.
        """
        topology = self._topology_ref()
        if topology is None:
            return len(self.km)
        for link in topology.links():
            self.exit_km(link.a, link.b)
            self.exit_km(link.b, link.a)
        return len(self.km)


_ADJACENCIES: "weakref.WeakKeyDictionary[Topology, FlatAdjacency]" = (
    weakref.WeakKeyDictionary()
)


def flat_adjacency(topology: "Topology") -> FlatAdjacency:
    """The flat adjacency of a topology, memoized per version.

    Stale entries (the topology mutated since the build) are replaced;
    entries die with their topology (weak keys, and the adjacency holds
    only a weak back-reference).
    """
    adjacency = _ADJACENCIES.get(topology)
    if adjacency is None or adjacency.version != topology.version:
        adjacency = FlatAdjacency(topology)
        _ADJACENCIES[topology] = adjacency
    return adjacency
