"""Packed-column routing tables behind the ``RoutingTable`` API.

A dict-of-dataclasses :class:`~repro.routing.engine.RoutingTable` costs
~404 bytes per stored route (the `docs/performance.md` memory baseline):
every route is a frozen dataclass holding a tuple, every equal-best set
another dataclass, every node a dict slot.  :class:`FlatRoutingTable`
stores the same information in five ``array`` columns:

- ``node_ids``  — routed nodes, table insertion order (``array('i')``);
- ``choice_start`` — per-node ``[start, end)`` slice into the route
  columns (``array('i')``, length ``rows + 1``);
- ``tiers``     — preference tier per node (``array('b')``; every route
  of an equal-best set shares its tier by construction);
- ``path_start`` — per-route ``[start, end)`` slice into ``path_nodes``
  (``array('i')``, length ``routes + 1``);
- ``path_nodes`` — all AS paths, flattened (``array('i')``).

Lookups go through a sorted-id bisect index.  The forwarding walk reads
next hops straight off the columns (:meth:`FlatRoutingTable
.next_hops_at`); ``Route``/``RouteChoice`` objects are built fresh, and
never kept, only on inspection paths — explain, lint invariants,
catchment summaries.  The ``best`` mapping
the rest of the codebase iterates is a read-only view whose iteration
order is the packed row order, which is what keeps ``encode_table`` (and
with it every serial-vs-parallel digest) byte-identical between dict and
flat computes.

Pickling ships the packed columns, so a worker process returns five
array buffers instead of a dataclass tree — the shrunken merge payload
the parallel-plane timeline used to attribute to object pickling.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Mapping
from typing import Any, Iterable, Iterator

from repro.routing.engine import RouteChoice, RoutingTable
from repro.routing.route import Announcement, PrefTier, Route

_ORIGIN = int(PrefTier.ORIGIN)


class _BestView(Mapping):
    """Read-only ``{node_id: RouteChoice}`` view over the packed columns."""

    __slots__ = ("_table",)

    def __init__(self, table: "FlatRoutingTable"):
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

    def __eq__(self, other: object) -> bool:
        # Fast path: identical packed columns are identical mappings
        # without materializing a single Route.  Mismatched columns fall
        # back to Mapping equality (dict comparison is order-insensitive,
        # and two views may store equal content in different row order).
        if isinstance(other, _BestView):
            a, b = self._table, other._table
            if (
                a._node_ids == b._node_ids
                and a._choice_start == b._choice_start
                and a._tiers == b._tiers
                and a._path_start == b._path_start
                and a._path_nodes == b._path_nodes
            ):
                return True
        return Mapping.__eq__(self, other)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"<_BestView of {len(self)} nodes>"


class FlatRoutingTable(RoutingTable):
    """A :class:`RoutingTable` backed by packed array columns."""

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
        self._num_nodes = num_nodes
        self._node_ids = node_ids
        self._choice_start = choice_start
        self._tiers = tiers
        self._path_start = path_start
        self._path_nodes = path_nodes
        order = sorted(range(len(node_ids)), key=node_ids.__getitem__)
        self._sorted_ids = array("i", [node_ids[row] for row in order])
        self._sorted_rows = array("i", order)
        self.best = _BestView(self)  # type: ignore[assignment]

    @classmethod
    def from_rows(
        cls,
        announcement: Announcement,
        topology_version: int,
        num_nodes: int,
        rows: Iterable[tuple[int, int, list[tuple[int, ...]]]],
    ) -> "FlatRoutingTable":
        """Pack ``(node_id, tier, equal-best paths)`` rows into columns.

        Row order becomes table order; path order within a row becomes
        route order (``paths[0]`` is the primary).
        """
        node_ids = array("i")
        tiers = array("b")
        choice_start = array("i", [0])
        path_start = array("i", [0])
        path_nodes = array("i")
        for node_id, tier, paths in rows:
            node_ids.append(node_id)
            tiers.append(tier)
            for path in paths:
                path_nodes.extend(path)
                path_start.append(len(path_nodes))
            choice_start.append(len(path_start) - 1)
        return cls(
            announcement,
            topology_version,
            num_nodes,
            node_ids,
            choice_start,
            tiers,
            path_start,
            path_nodes,
        )

    # ------------------------------------------------------------------
    def _row_of(self, node_id: int) -> int | None:
        index = bisect_left(self._sorted_ids, node_id)
        if (
            index < len(self._sorted_ids)
            and self._sorted_ids[index] == node_id
        ):
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

    # -- RoutingTable API over the columns ------------------------------
    def choice_at(self, node_id: int) -> RouteChoice | None:
        row = self._row_of(node_id)
        return self._choice_for_row(row) if row is not None else None

    def next_hops_at(self, node_id: int) -> tuple[int, ...] | None:
        row = self._row_of(node_id)
        if row is None:
            return None
        if self._tiers[row] == _ORIGIN:
            return ()
        # Paths start at the holder, so a route's next hop is its
        # path's second node.
        path_start = self._path_start
        path_nodes = self._path_nodes
        lo = self._choice_start[row]
        hi = self._choice_start[row + 1]
        if hi - lo == 1:
            return (path_nodes[path_start[lo] + 1],)
        return tuple(path_nodes[path_start[j] + 1] for j in range(lo, hi))

    def route_at(self, node_id: int) -> Route | None:
        choice = self.choice_at(node_id)
        return choice.primary if choice is not None else None

    def catchment_of(self, node_id: int) -> int | None:
        row = self._row_of(node_id)
        if row is None:
            return None
        # Last node of the primary (first) path — no materialization.
        primary = self._choice_start[row]
        return self._path_nodes[self._path_start[primary + 1] - 1]

    def num_routes(self) -> int:
        return len(self._path_start) - 1

    def reachable_fraction(self) -> float:
        if self._num_nodes <= 0:
            return 0.0
        return len(self._node_ids) / self._num_nodes

    # ------------------------------------------------------------------
    def census_state(self) -> tuple[Any, ...]:
        """What the memory census should walk for this table.

        The packed columns plus the bisect index and the shared
        announcement; the ``best`` view holds nothing of its own.
        """
        return (
            self.announcement,
            self._node_ids,
            self._choice_start,
            self._tiers,
            self._path_start,
            self._path_nodes,
            self._sorted_ids,
            self._sorted_rows,
        )

    def __reduce__(self) -> tuple[Any, ...]:
        return (
            _rebuild_flat,
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
            f"FlatRoutingTable(prefix={self.announcement.prefix}, "
            f"nodes={len(self._node_ids)}, routes={self.num_routes()})"
        )


def _rebuild_flat(
    announcement: Announcement,
    topology_version: int,
    num_nodes: int,
    node_ids: array,
    choice_start: array,
    tiers: array,
    path_start: array,
    path_nodes: array,
) -> FlatRoutingTable:
    """Unpickle target: rebuild a table from its packed columns."""
    return FlatRoutingTable(
        announcement,
        topology_version,
        num_nodes,
        node_ids,
        choice_start,
        tiers,
        path_start,
        path_nodes,
    )
