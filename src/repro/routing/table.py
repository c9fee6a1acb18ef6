"""Routing tables: one announcement's equal-best route sets, packed.

:class:`RoutingTable`, the table every routing compute returns, stores
each routed node's equal-best set in five ``array`` columns:

- ``node_ids``  — routed nodes, table insertion order (``array('i')``);
- ``choice_start`` — per-node ``[start, end)`` slice into the route
  columns (``array('i')``, length ``rows + 1``);
- ``tiers``     — preference tier per node (``array('b')``; every route
  of an equal-best set shares its tier by construction);
- ``path_start`` — per-route ``[start, end)`` slice into ``path_nodes``
  (``array('i')``, length ``routes + 1``);
- ``path_nodes`` — all AS paths, flattened (``array('i')``).

Lookups go through a sorted-id bisect index, sorted by the first
lookup: a table that is only computed, stored, loaded or digested
(every ``routing-large`` table) never sorts.  The forwarding walk reads
next hops off the columns (:meth:`RoutingTable.next_hops_at`), and
the table memoizes each node's next-hop tuple the first time a walk
asks for it, so the bisect runs once per (table, node).  The memo is
filled lazily too: a table nothing walks keeps it empty.
``Route``/``RouteChoice`` objects are built fresh, and never kept, only
on inspection paths — explain, lint invariants, catchment summaries.  The ``best`` mapping
the rest of the codebase iterates is a read-only view whose iteration
order is the packed row order, the order ``encode_table`` writes (and
with it every serial-vs-parallel digest).

Pickling ships the packed columns, so a worker process returns five
array buffers instead of a dataclass tree.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Mapping
from itertools import accumulate, chain
from operator import itemgetter
from typing import Any, Iterable, Iterator, Sequence

from repro.netaddr.ipv4 import IPv4Prefix
from repro.routing.route import Announcement, PrefTier, Route, RouteChoice

_ORIGIN = int(PrefTier.ORIGIN)


class _BestView(Mapping):
    """Read-only ``{node_id: RouteChoice}`` view over the packed columns."""

    __slots__ = ("_table",)

    def __init__(self, table: "RoutingTable"):
        self._table = table

    def __getitem__(self, node_id: int) -> RouteChoice:
        row = self._table._row_of(node_id)
        if row is None:
            raise KeyError(node_id)
        return self._table._choice_for_row(row)

    def __iter__(self) -> Iterator[int]:
        return iter(self._table._node_ids)

    def __len__(self) -> int:
        return len(self._table._node_ids)

    def __contains__(self, node_id: object) -> bool:
        return (
            isinstance(node_id, int)
            and self._table._row_of(node_id) is not None
        )

    def __repr__(self) -> str:
        return f"<_BestView of {len(self)} nodes>"


class RoutingTable:
    """Best route set per node for one announcement."""

    def __init__(
        self,
        announcement: Announcement,
        topology_version: int,
        num_nodes: int,
        node_ids: array,
        choice_start: array,
        tiers: array,
        path_start: array,
        path_nodes: array,
    ):
        self.announcement = announcement
        self.topology_version = topology_version
        #: Node count of the topology the table was computed over — the
        #: denominator of :meth:`reachable_fraction`.
        self._num_nodes = num_nodes
        self._node_ids = node_ids
        self._choice_start = choice_start
        self._tiers = tiers
        self._path_start = path_start
        self._path_nodes = path_nodes
        #: Node ids in ascending order, and the row of each; built by
        #: the first :meth:`_row_of`.
        self._sorted_ids: array | None = None
        self._sorted_rows: array | None = None
        #: node id -> next-hop tuple (None when unrouted); filled by
        #: :meth:`next_hops_at` as walks reach each node.
        self._next_hops: dict[int, tuple[int, ...] | None] = {}
        self.best: Mapping[int, RouteChoice] = _BestView(self)

    @classmethod
    def from_rows(
        cls,
        announcement: Announcement,
        topology_version: int,
        num_nodes: int,
        rows: Iterable[tuple[int, int, Sequence[tuple[int, ...]]]],
    ) -> "RoutingTable":
        """Pack ``(node_id, tier, equal-best paths)`` rows into columns.

        Row order becomes table order; path order within a row becomes
        route order (``paths[0]`` is the primary).  Offsets are running
        sums of lengths, so every column fills in C.  (Unzipping with
        ``zip(*rows)`` would open an iterator per row, and that many
        short-lived allocations set off the cyclic collector.)
        """
        rows = list(rows)
        path_sets = list(map(itemgetter(2), rows))
        paths = list(chain.from_iterable(path_sets))
        return cls(
            announcement,
            topology_version,
            num_nodes,
            array("i", map(itemgetter(0), rows)),
            array("i", accumulate(map(len, path_sets), initial=0)),
            array("b", map(itemgetter(1), rows)),
            array("i", accumulate(map(len, paths), initial=0)),
            array("i", chain.from_iterable(paths)),
        )

    @property
    def prefix(self) -> IPv4Prefix:
        return self.announcement.prefix

    # ------------------------------------------------------------------
    def _row_of(self, node_id: int) -> int | None:
        sorted_ids = self._sorted_ids
        if sorted_ids is None:
            node_ids = self._node_ids
            order = sorted(range(len(node_ids)), key=node_ids.__getitem__)
            self._sorted_rows = array("i", order)
            sorted_ids = self._sorted_ids = array(
                "i", [node_ids[row] for row in order]
            )
        index = bisect_left(sorted_ids, node_id)
        if index < len(sorted_ids) and sorted_ids[index] == node_id:
            return self._sorted_rows[index]
        return None

    def _choice_for_row(self, row: int) -> RouteChoice:
        """A fresh ``RouteChoice`` for one row (inspection paths only)."""
        prefix = self.announcement.prefix
        tier = PrefTier(self._tiers[row])
        path_start = self._path_start
        path_nodes = self._path_nodes
        return RouteChoice(routes=tuple(
            Route(
                prefix=prefix,
                origin=path_nodes[path_start[j + 1] - 1],
                path=tuple(path_nodes[path_start[j]:path_start[j + 1]]),
                tier=tier,
            )
            for j in range(self._choice_start[row], self._choice_start[row + 1])
        ))

    # ------------------------------------------------------------------
    def choice_at(self, node_id: int) -> RouteChoice | None:
        """The equal-best route set at a node, or None if unreachable."""
        row = self._row_of(node_id)
        return self._choice_for_row(row) if row is not None else None

    def next_hops_at(self, node_id: int) -> tuple[int, ...] | None:
        """Next hops of the node's equal-best routes, in route order.

        Empty at an origin site; None when the node holds no route.
        The forwarding walk reads only this, never a ``Route``.
        """
        try:
            return self._next_hops[node_id]
        except KeyError:
            pass
        row = self._row_of(node_id)
        next_hops: tuple[int, ...] | None
        if row is None:
            next_hops = None
        elif self._tiers[row] == _ORIGIN:
            next_hops = ()
        else:
            # Paths start at the holder, so a route's next hop is its
            # path's second node.
            path_start = self._path_start
            path_nodes = self._path_nodes
            next_hops = tuple(
                path_nodes[path_start[j] + 1]
                for j in range(self._choice_start[row],
                               self._choice_start[row + 1])
            )
        self._next_hops[node_id] = next_hops
        return next_hops

    def route_at(self, node_id: int) -> Route | None:
        """The primary (advertised) route at a node, or None."""
        choice = self.choice_at(node_id)
        return choice.primary if choice is not None else None

    def catchment_of(self, node_id: int) -> int | None:
        """Origin site of the node's primary route.

        Note that the *realised* catchment of a client inside the node may
        differ when hot-potato forwarding picks an alternate equal-best
        exit; use the measurement layer for client-level catchments.
        """
        row = self._row_of(node_id)
        if row is None:
            return None
        # Last node of the primary (first) path — no materialization.
        primary = self._choice_start[row]
        return self._path_nodes[self._path_start[primary + 1] - 1]

    def num_routes(self) -> int:
        """Total stored routes over every node's equal-best set."""
        return len(self._path_start) - 1

    def reachable_fraction(self) -> float:
        """Fraction of nodes holding a route (global reachability, §4.5)."""
        if self._num_nodes <= 0:
            return 0.0
        return len(self._node_ids) / self._num_nodes

    # ------------------------------------------------------------------
    def __reduce__(self) -> tuple[Any, ...]:
        return (
            type(self),
            (
                self.announcement,
                self.topology_version,
                self._num_nodes,
                self._node_ids,
                self._choice_start,
                self._tiers,
                self._path_start,
                self._path_nodes,
            ),
        )

    def __repr__(self) -> str:
        return (
            f"RoutingTable(prefix={self.announcement.prefix}, "
            f"nodes={len(self._node_ids)}, routes={self.num_routes()})"
        )
