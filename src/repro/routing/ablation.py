"""Ablated routing: hop-count shortest path without BGP policy.

§2.1 attributes catchment inefficiency to *policy* routing.  This module
removes the policy: routes propagate over every adjacency regardless of
business relationship and each node keeps the equal-best set by hop count
alone.  Comparing anycast latency under this engine against the real one
isolates how much of the inefficiency BGP's preferences cause — the
"policy on/off" ablation of DESIGN.md.
"""

from __future__ import annotations

from repro.routing.route import Announcement, PrefTier
from repro.routing.table import RoutingTable
from repro.topology.graph import Topology


def compute_shortest_path_table(
    topology: Topology, announcement: Announcement, max_equal_best: int = 16
) -> RoutingTable:
    """Hop-count BFS routing table (no preferences, no export rules)."""
    origin_spec = {spec.site_node: spec for spec in announcement.origins}
    best: dict[int, tuple[int, list[tuple[int, ...]]]] = {}
    for site in origin_spec:
        if not topology.has_node(site):
            raise ValueError(f"announcement origin {site} not in topology")
        best[site] = (int(PrefTier.ORIGIN), [(site,)])
    frontier = list(origin_spec)
    while frontier:
        candidates: dict[int, list[tuple[int, ...]]] = {}
        for u in frontier:
            path_u = best[u][1][0]
            spec = origin_spec.get(u)
            for v in topology.neighbors_of(u):
                if v in best:
                    continue
                if spec is not None and not spec.announces_to(v):
                    continue
                if v in path_u:
                    continue
                candidates.setdefault(v, []).append((v,) + path_u)
        frontier = []
        for v, paths in candidates.items():
            # One path per next hop: the lowest (next hop, origin).
            unique: dict[int, tuple[int, ...]] = {}
            for path in sorted(paths, key=lambda path: (path[1], path[-1])):
                unique.setdefault(path[1], path)
            best[v] = (
                int(PrefTier.CUSTOMER), list(unique.values())[:max_equal_best]
            )
            frontier.append(v)
    return RoutingTable.from_rows(
        announcement,
        topology.version,
        topology.num_nodes,
        ((node, tier, paths) for node, (tier, paths) in best.items()),
    )
