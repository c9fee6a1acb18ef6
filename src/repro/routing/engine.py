"""Three-stage BGP route computation with equal-best route sets.

The engine exploits the valley-free structure of Gao-Rexford policies to
compute every node's selected route(s) in three deterministic passes
instead of simulating message-level convergence:

1. **Customer routes propagate up.**  A breadth-first sweep from the origin
   sites along customer→provider edges assigns each node its best
   customer-learned routes (shortest AS path).
2. **Peer routes cross one lateral hop.**  Every node holding an origin or
   customer route exports its primary route to its peers.  Receivers rank
   public/private peers above route-server peers *before* comparing path
   lengths — exactly the preference that sends the Belarusian probe of
   Fig. 7 to Singapore.
3. **Provider routes propagate down.**  A sweep in hop-count order along
   provider→customer edges delivers routes to everyone else; an AS always
   exports its overall best route to its customers.

Preference order: highest tier (customer > peer > route-server peer >
provider), then shortest AS path.  All routes tied on (tier, length) are
*kept* as an equal-best set: a continent-spanning AS does not choose one
global exit — each ingress router picks the nearest equally-good exit
(IGP hot-potato).  :mod:`repro.routing.forwarding` resolves among the
equal-best sets geographically, per client, which is what makes most
clients of a global anycast system land on a same-continent site while
the policy-driven pathological tail (Fig. 1) does not.

The *primary* route of each set (deterministic hot-potato + id
tie-breaks) is what the node advertises to its neighbors, matching BGP's
single-best-announcement behaviour.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from repro import obs
from repro.explain import provenance
from repro.explain.provenance import RouteCandidate, SelectionTrail
from repro.routing.route import Announcement, OriginSpec, PrefTier
from repro.routing.table import RoutingTable
from repro.topology.graph import Topology

if TYPE_CHECKING:
    from repro.par.cache import RoutingTableCache
    from repro.topology.flat import FlatAdjacency

#: Tie-break description recorded on selection trails: how the engine
#: orders routes *within* one equal-best set.
HOT_POTATO_TIE_BREAK = "hot-potato: nearest exit-interconnect km, then neighbor id, then origin id"

#: Lowercase preference-tier names, as selection trails record them.
_TIER_NAMES = {int(tier): tier.name.lower() for tier in PrefTier}


def _candidate(
    path: tuple[int, ...], tier: int, reason: str = ""
) -> RouteCandidate:
    """Selection-trail entry for one offered path; accepted iff no reason."""
    return RouteCandidate(
        path=path, tier=_TIER_NAMES[tier],
        via=path[1] if len(path) > 1 else path[0],
        accepted=not reason, reason=reason,
    )


class RoutingEngine:
    """Computes and caches routing tables over one topology."""

    #: Upper bound on stored equal-best routes per node; forwarding only
    #: needs enough diversity to pick a nearby exit.
    MAX_EQUAL_BEST = 16

    #: Cap on candidates kept per selection trail; rejected offers past
    #: this are dropped rather than growing trails without bound.
    MAX_TRAIL_CANDIDATES = 64

    def __init__(self, topology: Topology):
        self._topology = topology
        self._cache: dict[tuple[Announcement, int], RoutingTable] = {}
        self._adj: "FlatAdjacency | None" = None
        self._cache_hits = 0
        self._cache_misses = 0
        self._pcache_hits = 0
        #: Optional on-disk table store (:class:`repro.par.cache
        #: .RoutingTableCache`), attached by the world builder or CLI.
        #: None (the default) keeps the engine purely in-memory.
        self.persistent_cache: "RoutingTableCache | None" = None

    @property
    def topology(self) -> Topology:
        return self._topology

    def compute(self, announcement: Announcement) -> RoutingTable:
        """Routing table for an announcement: a batch of one
        :meth:`compute_many`, so it never fans out to workers."""
        return self.compute_many((announcement,))[0]

    def compute_uncached(self, announcement: Announcement) -> RoutingTable:
        """One real three-stage compute, bypassing every cache.

        This is the unit of work :func:`repro.par.routing.compute_fanout`
        runs in worker processes; the caches stay a parent-side concern.
        """
        with obs.span("routing.compute",
                      prefix=str(announcement.prefix),
                      origins=len(announcement.origins)):
            return self._compute(announcement)

    def compute_many(
        self,
        announcements: Iterable[Announcement],
        workers: int | None = None,
    ) -> list[RoutingTable]:
        """Tables for many announcements (cached per topology version),
        optionally computed in parallel.

        Lookup order: the in-memory cache, then the persistent on-disk
        cache when one is attached, then a real compute (whose result
        feeds both caches).  Only the real compute opens a
        ``routing.compute`` span — a warm run shows none.  Two or more
        uncomputed announcements fan out to worker processes when the
        resolved worker count exceeds 1 and no provenance capture is
        active (selection trails are recorded into a process-local
        recorder, so parallel workers would lose them).  Results are
        returned in input order and are byte-identical to serial
        computes.
        """
        announcements = list(announcements)
        version = self._topology.version
        resolved: dict[int, RoutingTable] = {}
        pending: list[int] = []
        for index, announcement in enumerate(announcements):
            table = self._cache.get((announcement, version))
            if table is not None:
                self._cache_hits += 1
                obs.counter.inc("routing.cache_hits")
                resolved[index] = table
                continue
            table = self._load_persistent(announcement)
            if table is not None:
                self._cache[(announcement, version)] = table
                resolved[index] = table
                continue
            pending.append(index)

        if pending:
            from repro.par.pool import capture_blocks_parallel, worker_count

            parallel = (
                len(pending) > 1
                and worker_count(workers) > 1
                and not capture_blocks_parallel()
            )
            if parallel:
                from repro.par.routing import compute_fanout

                tables = compute_fanout(
                    self._topology,
                    [announcements[i] for i in pending],
                    workers=workers,
                )
            else:
                tables = [
                    self.compute_uncached(announcements[i]) for i in pending
                ]
            for index, table in zip(pending, tables):
                announcement = announcements[index]
                self._cache_misses += 1
                self._cache[(announcement, version)] = table
                self._store_persistent(announcement, table)
                resolved[index] = table
        return [resolved[i] for i in range(len(announcements))]

    # ------------------------------------------------------------------
    def _load_persistent(
        self, announcement: Announcement
    ) -> RoutingTable | None:
        cache = self.persistent_cache
        if cache is None:
            return None
        table = cache.load(self._topology, announcement)
        if table is not None:
            self._pcache_hits += 1
            obs.counter.inc("routing.pcache_hits")
        return table

    def _store_persistent(
        self, announcement: Announcement, table: RoutingTable
    ) -> None:
        cache = self.persistent_cache
        if cache is not None:
            cache.store(self._topology, announcement, table)

    def cache_stats(self) -> tuple[int, int]:
        """Lifetime ``(hits, misses)`` of the routing-table caches.

        Persistent-cache hits count as hits: the caller asked for a
        table and no compute ran.
        """
        return self._cache_hits + self._pcache_hits, self._cache_misses

    def cache_hit_rate(self) -> float:
        """Fraction of ``compute`` calls served from a cache (0 when cold)."""
        hits, misses = self.cache_stats()
        total = hits + misses
        return hits / total if total else 0.0

    # ------------------------------------------------------------------
    def _adjacency(self) -> "FlatAdjacency":
        """The topology's flat adjacency, re-resolved on version change."""
        adj = self._adj
        if adj is None or adj.version != self._topology.version:
            from repro.topology.flat import flat_adjacency

            adj = self._adj = flat_adjacency(self._topology)
        return adj

    # ------------------------------------------------------------------
    def _compute(self, announcement: Announcement) -> RoutingTable:
        """The three-stage sweep over flat arrays and plain path tuples.

        A route is just its AS-path tuple (``path[0]`` the holder,
        ``path[1]`` the next hop, ``path[-1]`` the origin); a routed
        node's table row is ``(node, tier, paths)`` with ``paths[0]``
        primary.  Neighbours are read straight off the adjacency's CSR
        rows, and exit km straight off its memo.

        Equal-best sets end up as tuples where the sweep can make them
        so: a tuple of ints drops out of the cyclic garbage collector's
        tracking and a list never does, and each full collection the
        sweep's survivors set off walks the whole topology.

        Under a provenance capture the same sweep records one
        :class:`SelectionTrail` per routed node: its accepted paths, any
        equal-best overflow, then the offers it refused, in the order
        the sweep met them.  Recording happens only on branches that
        refuse or settle a route, behind a ``prov is not None`` check,
        so an uncaptured compute does no trail work.
        """
        topo = self._topology
        adj = self._adjacency()
        origin_spec: dict[int, OriginSpec] = {
            spec.site_node: spec for spec in announcement.origins
        }
        for site in origin_spec:
            if not topo.has_node(site):
                raise ValueError(f"announcement origin {site} not in topology")

        row_of = adj.row
        km_memo = adj.km
        exit_km = adj.exit_km
        max_equal = self.MAX_EQUAL_BEST
        trail_cap = self.MAX_TRAIL_CANDIDATES

        # Each routed node's table row: ``(node, tier, paths)``.
        best: dict[int, tuple[int, int, Sequence[tuple[int, ...]]]] = {
            site: (site, int(PrefTier.ORIGIN), ((site,),)) for site in origin_spec
        }

        # Decision provenance (repro.explain), fetched once per compute.
        # ``trails`` holds each routed node's stage and candidates;
        # ``refused`` holds offers to nodes not yet routed, for the trail
        # they settle with in the current BFS level or stage.
        prov = provenance.active()
        trails: dict[int, tuple[str, list[RouteCandidate]]] = {}
        refused: dict[int, list[RouteCandidate]] = {}
        if prov is not None:
            for site in origin_spec:
                trails[site] = ("origin", [_candidate((site,), best[site][1])])

        def refuse(node: int, path: tuple[int, ...], tier: int, reason: str) -> None:
            """Record an offer ``node`` turned down (captures only): on
            its trail while under the cap if it is routed, else held for
            the trail it settles with."""
            trail = trails.get(node)
            if trail is None:
                refused.setdefault(node, []).append(_candidate(path, tier, reason))
            elif len(trail[1]) < trail_cap:
                trail[1].append(_candidate(path, tier, reason))

        splits = 0

        def settle(
            node: int, tier: int, paths: Sequence[tuple[int, ...]], stage: str,
            ranked: bool = False,
        ) -> None:
            """Route the node: hot-potato sort and equal-best cap first,
            unless the sweep met ``paths`` already ranked and capped."""
            nonlocal splits
            overflow: Sequence[tuple[int, ...]] = ()
            if len(paths) > 1 and not ranked:
                paths = tuple(sorted(
                    paths,
                    key=lambda path: (exit_km(node, path[1]), path[1], path[-1]),
                ))
                overflow = paths[max_equal:]
                paths = paths[:max_equal]
            if len(paths) > 1:
                splits += 1
            best[node] = (node, tier, paths)
            if prov is not None:
                candidates = [_candidate(path, tier) for path in paths]
                candidates += [
                    _candidate(path, tier, "equal-best-overflow")
                    for path in overflow
                ]
                candidates += refused.get(node, ())
                del candidates[trail_cap:]
                trails[node] = (stage, candidates)

        # --- Stage 1: customer routes up ------------------------------
        with obs.span("routing.stage1_customer"):
            export_checks = 0
            routes_pushed = 0
            customer_tier = int(PrefTier.CUSTOMER)
            prov_ptr, prov_ids = adj.prov_ptr, adj.prov_ids
            frontier = list(origin_spec)
            while frontier:
                refused.clear()
                candidates: dict[int, list[tuple[int, ...]]] = {}
                for u in frontier:
                    path_u = best[u][2][0]
                    spec = origin_spec.get(u)
                    row = row_of[u]
                    for p in prov_ids[prov_ptr[row]:prov_ptr[row + 1]]:
                        if p in best:
                            if prov is not None:
                                refuse(p, (p,) + path_u, customer_tier,
                                       "longer-path")
                            continue
                        export_checks += 1
                        if spec is not None and not spec.announces_to(p):
                            if prov is not None:
                                refuse(p, (p,) + path_u, customer_tier,
                                       "not-exported")
                            continue
                        if p in path_u:
                            if prov is not None:
                                refuse(p, (p,) + path_u, customer_tier, "loop")
                            continue
                        routes_pushed += 1
                        extended = (p,) + path_u
                        held = candidates.get(p)
                        if held is None:
                            candidates[p] = [extended]
                        else:
                            held.append(extended)
                for p, paths in candidates.items():
                    # BFS level fixes the hop count, so all are equal-best.
                    settle(p, customer_tier, paths, "stage1-customer")
                frontier = list(candidates)
            obs.counter.inc("routing.export_checks", export_checks)
            obs.counter.inc("routing.routes_pushed", routes_pushed)
            if splits:
                obs.counter.inc("routing.equal_best_splits", splits)
                splits = 0

        # --- Stage 2: peer routes, one lateral hop ---------------------
        with obs.span("routing.stage2_peer"):
            export_checks = 0
            routes_pushed = 0
            refused.clear()
            peer_ptr, peer_ids = adj.peer_ptr, adj.peer_ids
            peer_tiers = adj.peer_tiers
            peer_candidates: dict[
                int, tuple[list[int], list[tuple[int, ...]]]
            ] = {}
            for u, _tier_u, paths_u in best.values():
                path_u = paths_u[0]
                spec = origin_spec.get(u)
                row = row_of[u]
                lo, hi = peer_ptr[row], peer_ptr[row + 1]
                for v, tier in zip(peer_ids[lo:hi], peer_tiers[lo:hi]):
                    if v in best:
                        if prov is not None:
                            refuse(v, (v,) + path_u, tier, "held-better-tier")
                        continue
                    export_checks += 1
                    if spec is not None and not spec.announces_to(v):
                        if prov is not None:
                            refuse(v, (v,) + path_u, tier, "not-exported")
                        continue
                    if v in path_u:
                        if prov is not None:
                            refuse(v, (v,) + path_u, tier, "loop")
                        continue
                    routes_pushed += 1
                    held_peer = peer_candidates.get(v)
                    if held_peer is None:
                        held_peer = ([], [])
                        peer_candidates[v] = held_peer
                    held_peer[0].append(tier)
                    held_peer[1].append((v,) + path_u)
            for v, (tiers, paths) in peer_candidates.items():
                top_tier = max(tiers)
                tiered = [p for t, p in zip(tiers, paths) if t == top_tier]
                min_len = min(len(p) for p in tiered)
                equal = [p for p in tiered if len(p) == min_len]
                if prov is not None:
                    for t, p in zip(tiers, paths):
                        if t != top_tier:
                            refuse(v, p, t, "lower-tier")
                    for p in tiered:
                        if len(p) != min_len:
                            refuse(v, p, top_tier, "longer-path")
                settle(v, top_tier, equal, "stage2-peer")
            obs.counter.inc("routing.export_checks", export_checks)
            obs.counter.inc("routing.routes_pushed", routes_pushed)
            if splits:
                obs.counter.inc("routing.equal_best_splits", splits)
                splits = 0

        # --- Stage 3: provider routes down ------------------------------
        # Offers wait in buckets by hop count, each entry ``(exit km,
        # via, origin, node, path)``.  A bucket is complete before it is
        # read (an offer is one hop longer than the route it extends),
        # so one sort per bucket gives the order a heap keyed on (hops,
        # km, via, origin, node) would pop.  A topology holds one link
        # per node pair, so each (node, via) is offered at most once:
        # keys are unique, paths are never compared, and a node meets
        # its equal-best offers ranked and from distinct neighbours.
        # Entries are popped off the end of a reverse-sorted bucket so
        # each is freed as it is read.
        with obs.span("routing.stage3_provider"):
            export_checks = 0
            routes_pushed = 0
            refused.clear()
            cust_ptr, cust_ids = adj.cust_ptr, adj.cust_ids
            provider_tier = int(PrefTier.PROVIDER)
            buckets: dict[
                int, list[tuple[float, int, int, int, tuple[int, ...]]]
            ] = {}
            for u, _tier_u, paths_u in best.values():
                path_u = paths_u[0]
                spec = origin_spec.get(u)
                row = row_of[u]
                offers = buckets.setdefault(len(path_u), [])
                for c in cust_ids[cust_ptr[row]:cust_ptr[row + 1]]:
                    if c in best:
                        if prov is not None:
                            refuse(c, (c,) + path_u, provider_tier,
                                   "held-better-tier")
                        continue
                    export_checks += 1
                    if spec is not None and not spec.announces_to(c):
                        if prov is not None:
                            refuse(c, (c,) + path_u, provider_tier,
                                   "not-exported")
                        continue
                    if c in path_u:
                        if prov is not None:
                            refuse(c, (c,) + path_u, provider_tier, "loop")
                        continue
                    routes_pushed += 1
                    # ``or`` only re-asks the memo for a 0.0 km.
                    km = km_memo.get((c << 32) | u) or exit_km(c, u)
                    offers.append((km, u, path_u[-1], c, (c,) + path_u))
            provider_paths: dict[int, tuple[tuple[int, ...], ...]] = {}
            provider_hops: dict[int, int] = {}
            while buckets:
                hops = min(buckets)
                offers = buckets.pop(hops)
                offers.sort(reverse=True)
                onward = buckets.setdefault(hops + 1, [])
                while offers:
                    _km, _via, origin, node, path = offers.pop()
                    assigned = provider_hops.get(node)
                    if assigned is None:
                        # First (best) provider route: assign, export onward.
                        provider_hops[node] = hops
                        provider_paths[node] = (path,)
                        row = row_of[node]
                        for c in cust_ids[cust_ptr[row]:cust_ptr[row + 1]]:
                            if c in best:
                                if prov is not None:
                                    refuse(c, (c,) + path, provider_tier,
                                           "held-better-tier")
                                continue
                            if c in path:
                                if prov is not None:
                                    refuse(c, (c,) + path, provider_tier,
                                           "loop")
                                continue
                            routes_pushed += 1
                            km = km_memo.get((c << 32) | node) or exit_km(c, node)
                            onward.append((km, node, origin, c, (c,) + path))
                    elif assigned == hops:
                        # Equal-best alternate (via another neighbour).
                        existing = provider_paths[node]
                        if len(existing) < max_equal:
                            provider_paths[node] = existing + (path,)
                        elif prov is not None:
                            refuse(node, path, provider_tier,
                                   "equal-best-overflow")
                    elif prov is not None:
                        # Longer provider routes are refused.
                        refuse(node, path, provider_tier, "longer-path")
                if not onward:
                    del buckets[hops + 1]
            for node, paths in provider_paths.items():
                settle(node, provider_tier, paths, "stage3-provider",
                       ranked=True)
            obs.counter.inc("routing.export_checks", export_checks)
            obs.counter.inc("routing.routes_pushed", routes_pushed)
            if splits:
                obs.counter.inc("routing.equal_best_splits", splits)

        table = RoutingTable.from_rows(
            announcement, topo.version, topo.num_nodes, best.values()
        )
        obs.gauge.set("routing.routed_nodes", len(best))
        if prov is not None:
            prefix_str = str(announcement.prefix)
            for node, (stage, trail) in trails.items():
                _node, tier, paths = best[node]
                prov.record_selection(SelectionTrail(
                    prefix=prefix_str,
                    node_id=node,
                    stage=stage,
                    winner_tier=_TIER_NAMES[tier],
                    winner_hops=len(paths[0]) - 1,
                    tie_break=("originates the prefix" if stage == "origin"
                               else HOT_POTATO_TIE_BREAK),
                    candidates=tuple(trail),
                ))
            prov.emit("routing.table-computed", prefix=prefix_str,
                      routed=len(best), origins=len(origin_spec))
        return table
