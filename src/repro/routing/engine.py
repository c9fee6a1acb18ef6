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
3. **Provider routes propagate down.**  A Dijkstra-style sweep along
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

import heapq
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro import obs
from repro.explain import provenance
from repro.explain.provenance import RouteCandidate, SelectionTrail
from repro.netaddr.ipv4 import IPv4Prefix
from repro.routing.route import Announcement, OriginSpec, PrefTier, Route
from repro.topology.asys import LinkKind
from repro.topology.graph import Topology

if TYPE_CHECKING:
    from repro.par.cache import RoutingTableCache
    from repro.topology.flat import FlatAdjacency

#: Environment knob for the flat compute path.  Unset or anything else
#: means *flat* (the default); ``0``/``false``/``off``/``no`` fall back
#: to the dict-of-dataclasses path.  Both paths are byte-identical
#: through the codec; the knob exists for A/B benchmarking and triage.
FLAT_ENV = "REPRO_FLAT"

#: Tie-break description recorded on selection trails: how the engine
#: orders routes *within* one equal-best set (see :meth:`RoutingEngine
#: ._rank_key`).
HOT_POTATO_TIE_BREAK = "hot-potato: nearest exit-interconnect km, then neighbor id, then origin id"


@dataclass(frozen=True)
class RouteChoice:
    """The equal-best routes of one node for one prefix.

    All member routes share the same preference tier and AS-path length;
    ``routes[0]`` is the primary (advertised) route.
    """

    routes: tuple[Route, ...]

    def __post_init__(self) -> None:
        if not self.routes:
            raise ValueError("a route choice cannot be empty")
        tiers = {r.tier for r in self.routes}
        hops = {r.hops for r in self.routes}
        if len(tiers) != 1 or len(hops) != 1:
            raise ValueError("equal-best routes must share tier and length")

    @property
    def primary(self) -> Route:
        return self.routes[0]

    @property
    def tier(self) -> PrefTier:
        return self.routes[0].tier

    @property
    def hops(self) -> int:
        return self.routes[0].hops

    def next_hops(self) -> tuple[int, ...]:
        return tuple(r.next_hop for r in self.routes)


@dataclass
class RoutingTable:
    """Best route set per node for one announcement."""

    announcement: Announcement
    best: dict[int, RouteChoice]
    topology_version: int
    #: Node count of the topology the table was computed over — the
    #: denominator of :meth:`reachable_fraction`.  Populated by the
    #: engine and by the persistent-cache loader.
    _num_nodes: int = field(default=0, repr=False)

    @property
    def prefix(self) -> IPv4Prefix:
        return self.announcement.prefix

    def choice_at(self, node_id: int) -> RouteChoice | None:
        """The equal-best route set at a node, or None if unreachable."""
        return self.best.get(node_id)

    def next_hops_at(self, node_id: int) -> tuple[int, ...] | None:
        """Next hops of the node's equal-best routes, in route order.

        Empty at an origin site; None when the node holds no route.
        The forwarding walk reads only this, never a ``Route``.
        """
        choice = self.best.get(node_id)
        if choice is None:
            return None
        if choice.tier is PrefTier.ORIGIN:
            return ()
        return choice.next_hops()

    def route_at(self, node_id: int) -> Route | None:
        """The primary (advertised) route at a node, or None."""
        choice = self.best.get(node_id)
        return choice.primary if choice is not None else None

    def catchment_of(self, node_id: int) -> int | None:
        """Origin site of the node's primary route.

        Note that the *realised* catchment of a client inside the node may
        differ when hot-potato forwarding picks an alternate equal-best
        exit; use the measurement layer for client-level catchments.
        """
        route = self.route_at(node_id)
        return route.origin if route is not None else None

    def num_routes(self) -> int:
        """Total stored routes over every node's equal-best set.

        The denominator of the memory census's bytes-per-route headline
        (:func:`repro.obs.memory.census_routing_table`).
        """
        return sum(len(choice.routes) for choice in self.best.values())

    def reachable_fraction(self) -> float:
        """Fraction of nodes holding a route (global reachability, §4.5)."""
        if self._num_nodes <= 0:
            return 0.0
        return len(self.best) / self._num_nodes


class RoutingEngine:
    """Computes and caches routing tables over one topology."""

    #: Upper bound on stored equal-best routes per node; forwarding only
    #: needs enough diversity to pick a nearby exit.
    MAX_EQUAL_BEST = 16

    def __init__(self, topology: Topology, *, use_flat: bool | None = None):
        self._topology = topology
        self._cache: dict[tuple[Announcement, int], RoutingTable] = {}
        self._exit_km_cache: dict[tuple[int, int], float] = {}
        self._exit_km_version = topology.version
        if use_flat is None:
            raw = os.environ.get(FLAT_ENV, "").strip().lower()
            use_flat = raw not in {"0", "false", "off", "no"}
        self._use_flat = use_flat
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
        """Routing table for an announcement (cached per topology version).

        Lookup order: the in-memory cache, then the persistent on-disk
        cache when one is attached, then a real compute (whose result
        feeds both caches).  Only the real compute opens a
        ``routing.compute`` span — a warm run shows none.
        """
        key = (announcement, self._topology.version)
        table = self._cache.get(key)
        if table is not None:
            self._cache_hits += 1
            obs.counter.inc("routing.cache_hits")
            return table
        table = self._load_persistent(announcement)
        if table is None:
            self._cache_misses += 1
            table = self.compute_uncached(announcement)
            self._store_persistent(announcement, table)
        self._cache[key] = table
        return table

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
        """Tables for many announcements, optionally computed in parallel.

        Cache hits (in-memory, then persistent) resolve inline; only the
        genuinely uncomputed announcements fan out to worker processes —
        and only when the resolved worker count exceeds 1 and no
        provenance capture is active (selection trails are recorded into
        a process-local recorder, so parallel workers would lose them).
        Results are returned in input order and are byte-identical to
        serial computes.
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
                worker_count(workers) > 1
                and len(pending) > 1
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
    def _load_persistent(self, announcement: Announcement) -> RoutingTable | None:
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

    def _exit_km(self, node_id: int, neighbor_id: int) -> float:
        """Deterministic hot-potato metric for primary-route selection:
        km from the node's nearest PoP to the closest interconnect of its
        link toward ``neighbor_id``.

        Values come from the shared :class:`repro.topology.flat
        .FlatAdjacency` memo, so the dict and flat compute paths rank
        routes by byte-identical floats; the per-engine dict keeps
        repeated dict-path lookups a single local probe.
        """
        if self._exit_km_version != self._topology.version:
            self._exit_km_cache.clear()
            self._exit_km_version = self._topology.version
        key = (node_id, neighbor_id)
        cached = self._exit_km_cache.get(key)
        if cached is not None:
            return cached
        km = self._adjacency().exit_km(node_id, neighbor_id)
        self._exit_km_cache[key] = km
        return km

    def _rank_key(self, node: int, route: Route) -> tuple[float, int, int]:
        """Ordering of routes *within* one equal-best set."""
        return (self._exit_km(node, route.next_hop), route.next_hop, route.origin)

    def _make_choice(
        self,
        node: int,
        routes: list[Route],
        *,
        prov: provenance.ProvenanceRecorder | None = None,
        stage: str = "",
        rejected: list[RouteCandidate] | None = None,
    ) -> RouteChoice:
        ordered = sorted(routes, key=lambda r: self._rank_key(node, r))
        choice = RouteChoice(routes=tuple(ordered[: self.MAX_EQUAL_BEST]))
        if len(choice.routes) > 1:
            obs.counter.inc("routing.equal_best_splits")
        if prov is not None:
            candidates = [
                RouteCandidate(path=r.path, tier=r.tier.name.lower(),
                               via=r.next_hop, accepted=True)
                for r in choice.routes
            ]
            candidates.extend(
                RouteCandidate(path=r.path, tier=r.tier.name.lower(),
                               via=r.next_hop, accepted=False,
                               reason="equal-best-overflow")
                for r in ordered[self.MAX_EQUAL_BEST:]
            )
            if rejected:
                candidates.extend(rejected)
            del candidates[self.MAX_TRAIL_CANDIDATES:]
            prov.record_selection(SelectionTrail(
                prefix=str(choice.primary.prefix),
                node_id=node,
                stage=stage,
                winner_tier=choice.tier.name.lower(),
                winner_hops=choice.hops,
                tie_break=HOT_POTATO_TIE_BREAK,
                candidates=tuple(candidates),
            ))
        return choice

    #: Cap on candidates kept per selection trail; rejected offers past
    #: this are dropped rather than growing trails without bound.
    MAX_TRAIL_CANDIDATES = 64

    def _record_reject(
        self,
        prov: provenance.ProvenanceRecorder,
        prefix_str: str,
        node: int,
        candidate: RouteCandidate,
    ) -> None:
        """Append a rejected offer to a node's already-recorded trail.

        Trails are frozen, so the stored one is replaced with a copy that
        carries the extra candidate.  This is how a later stage's refused
        offer (e.g. a provider route a customer-holding node turned down
        — the paper's prefer-customer decision) lands on the record of
        the decision that beat it.
        """
        trail = prov.selection_for(prefix_str, node)
        if trail is None or len(trail.candidates) >= self.MAX_TRAIL_CANDIDATES:
            return
        prov.record_selection(SelectionTrail(
            prefix=trail.prefix,
            node_id=trail.node_id,
            stage=trail.stage,
            winner_tier=trail.winner_tier,
            winner_hops=trail.winner_hops,
            tie_break=trail.tie_break,
            candidates=trail.candidates + (candidate,),
        ))

    # ------------------------------------------------------------------
    def _compute(self, announcement: Announcement) -> RoutingTable:
        """Dispatch one real compute to the flat or dict path.

        The flat path produces a :class:`repro.routing.flat
        .FlatRoutingTable` with byte-identical codec output; provenance
        capture forces the dict path, which materializes the ``Route``
        objects selection trails record.
        """
        if self._use_flat and provenance.active() is None:
            return self._compute_flat(announcement)
        return self._compute_dict(announcement)

    def _compute_dict(self, announcement: Announcement) -> RoutingTable:
        topo = self._topology
        prefix = announcement.prefix
        # Hoisted once per compute: the provenance branches below render
        # the prefix on every rejected offer, which runs inside the
        # stage loops.
        prefix_str = str(prefix)
        origin_spec: dict[int, OriginSpec] = {
            spec.site_node: spec for spec in announcement.origins
        }
        for site in origin_spec:
            if not topo.has_node(site):
                raise ValueError(f"announcement origin {site} not in topology")

        best: dict[int, RouteChoice] = {
            site: RouteChoice(
                routes=(
                    Route(prefix=prefix, origin=site, path=(site,),
                          tier=PrefTier.ORIGIN),
                )
            )
            for site in origin_spec
        }

        # Decision provenance (repro.explain): fetched once per compute;
        # every capture site below guards on `prov is not None`, so the
        # disabled path costs one global load and no per-route work.
        prov = provenance.active()
        if prov is not None:
            for site in origin_spec:
                prov.record_selection(SelectionTrail(
                    prefix=prefix_str,
                    node_id=site,
                    stage="origin",
                    winner_tier="origin",
                    winner_hops=0,
                    tie_break="originates the prefix",
                    candidates=(RouteCandidate(
                        path=(site,), tier="origin", via=site, accepted=True,
                    ),),
                ))

        def may_export(exporter: int, neighbor: int) -> bool:
            spec = origin_spec.get(exporter)
            return spec is None or spec.announces_to(neighbor)

        # --- Stage 1: customer routes up ------------------------------
        with obs.span("routing.stage1_customer"):
            export_checks = 0
            routes_pushed = 0
            frontier = list(origin_spec)
            while frontier:
                candidates: dict[int, list[Route]] = {}
                level_rejects: dict[int, list[RouteCandidate]] = {}
                for u in frontier:
                    route_u = best[u].primary
                    for p in topo.providers_of(u):
                        if p in best:
                            if prov is not None:
                                self._record_reject(prov, prefix_str, p, RouteCandidate(
                                    path=(p,) + route_u.path, tier="customer",
                                    via=u, accepted=False, reason="longer-path"))
                            continue
                        export_checks += 1
                        if not may_export(u, p):
                            if prov is not None:
                                level_rejects.setdefault(p, []).append(RouteCandidate(
                                    path=(p,) + route_u.path, tier="customer",
                                    via=u, accepted=False, reason="not-exported"))
                            continue
                        if p in route_u.path:
                            if prov is not None:
                                level_rejects.setdefault(p, []).append(RouteCandidate(
                                    path=(p,) + route_u.path, tier="customer",
                                    via=u, accepted=False, reason="loop"))
                            continue
                        routes_pushed += 1
                        candidates.setdefault(p, []).append(
                            Route(
                                prefix=prefix,
                                origin=route_u.origin,
                                path=(p,) + route_u.path,
                                tier=PrefTier.CUSTOMER,
                            )
                        )
                frontier = []
                for p, routes in candidates.items():
                    # BFS level fixes the hop count, so all are equal-best.
                    best[p] = self._make_choice(
                        p, routes, prov=prov, stage="stage1-customer",
                        rejected=level_rejects.get(p))
                    frontier.append(p)
            obs.counter.inc("routing.export_checks", export_checks)
            obs.counter.inc("routing.routes_pushed", routes_pushed)

        # --- Stage 2: peer routes, one lateral hop ---------------------
        with obs.span("routing.stage2_peer"):
            export_checks = 0
            routes_pushed = 0
            peer_candidates: dict[int, list[Route]] = {}
            peer_rejects: dict[int, list[RouteCandidate]] = {}
            for u, choice_u in best.items():
                route_u = choice_u.primary
                for v, kind in topo.peers_of(u):
                    if v in best:
                        if prov is not None:
                            self._record_reject(prov, prefix_str, v, RouteCandidate(
                                path=(v,) + route_u.path,
                                tier=("rs_peer" if kind is LinkKind.PEER_ROUTE_SERVER
                                      else "peer"),
                                via=u, accepted=False, reason="held-better-tier"))
                        continue
                    export_checks += 1
                    if not may_export(u, v):
                        if prov is not None:
                            peer_rejects.setdefault(v, []).append(RouteCandidate(
                                path=(v,) + route_u.path, tier="peer",
                                via=u, accepted=False, reason="not-exported"))
                        continue
                    if v in route_u.path:
                        if prov is not None:
                            peer_rejects.setdefault(v, []).append(RouteCandidate(
                                path=(v,) + route_u.path, tier="peer",
                                via=u, accepted=False, reason="loop"))
                        continue
                    tier = (
                        PrefTier.RS_PEER
                        if kind is LinkKind.PEER_ROUTE_SERVER
                        else PrefTier.PEER
                    )
                    routes_pushed += 1
                    peer_candidates.setdefault(v, []).append(
                        Route(
                            prefix=prefix,
                            origin=route_u.origin,
                            path=(v,) + route_u.path,
                            tier=tier,
                        )
                    )
            for v, routes in peer_candidates.items():
                top_tier = max(r.tier for r in routes)
                tiered = [r for r in routes if r.tier is top_tier]
                min_hops = min(r.hops for r in tiered)
                equal = [r for r in tiered if r.hops == min_hops]
                if prov is not None:
                    rejects = peer_rejects.setdefault(v, [])
                    rejects.extend(
                        RouteCandidate(path=r.path, tier=r.tier.name.lower(),
                                       via=r.next_hop, accepted=False,
                                       reason="lower-tier")
                        for r in routes if r.tier is not top_tier
                    )
                    rejects.extend(
                        RouteCandidate(path=r.path, tier=r.tier.name.lower(),
                                       via=r.next_hop, accepted=False,
                                       reason="longer-path")
                        for r in tiered if r.hops != min_hops
                    )
                best[v] = self._make_choice(
                    v, equal, prov=prov, stage="stage2-peer",
                    rejected=peer_rejects.get(v))
            obs.counter.inc("routing.export_checks", export_checks)
            obs.counter.inc("routing.routes_pushed", routes_pushed)

        # --- Stage 3: provider routes down ------------------------------
        with obs.span("routing.stage3_provider"):
            export_checks = 0
            routes_pushed = 0
            heap: list[tuple[int, float, int, int, int]] = []
            route_of_entry: dict[tuple[int, float, int, int, int], Route] = {}

            def push(candidate: Route, via: int) -> None:
                nonlocal routes_pushed
                routes_pushed += 1
                entry = (
                    candidate.hops,
                    self._exit_km(candidate.holder, via),
                    via,
                    candidate.origin,
                    candidate.holder,
                )
                route_of_entry[entry] = candidate
                heapq.heappush(heap, entry)

            provider_rejects: dict[int, list[RouteCandidate]] = {}
            for u, choice_u in best.items():
                route_u = choice_u.primary
                for c in topo.customers_of(u):
                    if c in best:
                        if prov is not None:
                            self._record_reject(prov, prefix_str, c, RouteCandidate(
                                path=(c,) + route_u.path, tier="provider",
                                via=u, accepted=False, reason="held-better-tier"))
                        continue
                    export_checks += 1
                    if not may_export(u, c):
                        if prov is not None:
                            provider_rejects.setdefault(c, []).append(RouteCandidate(
                                path=(c,) + route_u.path, tier="provider",
                                via=u, accepted=False, reason="not-exported"))
                        continue
                    if c in route_u.path:
                        if prov is not None:
                            provider_rejects.setdefault(c, []).append(RouteCandidate(
                                path=(c,) + route_u.path, tier="provider",
                                via=u, accepted=False, reason="loop"))
                        continue
                    push(
                        Route(prefix=prefix, origin=route_u.origin,
                              path=(c,) + route_u.path, tier=PrefTier.PROVIDER),
                        via=u,
                    )
            provider_routes: dict[int, list[Route]] = {}
            provider_hops: dict[int, int] = {}
            while heap:
                entry = heapq.heappop(heap)
                cand = route_of_entry.pop(entry)
                node = cand.holder
                if node in best:
                    continue
                assigned = provider_hops.get(node)
                if assigned is None:
                    # First (best) provider route: assign and export onward.
                    provider_hops[node] = cand.hops
                    provider_routes[node] = [cand]
                    for c in topo.customers_of(node):
                        if c in best:
                            if prov is not None:
                                self._record_reject(
                                    prov, prefix_str, c, RouteCandidate(
                                        path=(c,) + cand.path, tier="provider",
                                        via=node, accepted=False,
                                        reason="held-better-tier"))
                            continue
                        if c in cand.path:
                            if prov is not None:
                                provider_rejects.setdefault(c, []).append(
                                    RouteCandidate(
                                        path=(c,) + cand.path, tier="provider",
                                        via=node, accepted=False, reason="loop"))
                            continue
                        push(
                            Route(prefix=prefix, origin=cand.origin,
                                  path=(c,) + cand.path, tier=PrefTier.PROVIDER),
                            via=node,
                        )
                elif cand.hops == assigned:
                    # Equal-best alternate via a different neighbor.
                    existing = provider_routes[node]
                    if (
                        len(existing) < self.MAX_EQUAL_BEST
                        and all(r.next_hop != cand.next_hop for r in existing)
                    ):
                        existing.append(cand)
                    elif prov is not None:
                        reason = ("duplicate-exit"
                                  if any(r.next_hop == cand.next_hop
                                         for r in existing)
                                  else "equal-best-overflow")
                        provider_rejects.setdefault(node, []).append(RouteCandidate(
                            path=cand.path, tier="provider",
                            via=cand.next_hop, accepted=False, reason=reason))
                else:
                    # Longer provider routes are simply ignored.
                    if prov is not None:
                        provider_rejects.setdefault(node, []).append(RouteCandidate(
                            path=cand.path, tier="provider",
                            via=cand.next_hop, accepted=False,
                            reason="longer-path"))
            for node, routes in provider_routes.items():
                best[node] = self._make_choice(
                    node, routes, prov=prov, stage="stage3-provider",
                    rejected=provider_rejects.get(node))
            obs.counter.inc("routing.export_checks", export_checks)
            obs.counter.inc("routing.routes_pushed", routes_pushed)

        table = RoutingTable(
            announcement=announcement,
            best=best,
            topology_version=topo.version,
            _num_nodes=topo.num_nodes,
        )
        obs.gauge.set("routing.routed_nodes", len(best))
        if prov is not None:
            prov.emit("routing.table-computed", prefix=prefix_str,
                      routed=len(best), origins=len(origin_spec))
        return table

    # ------------------------------------------------------------------
    def _compute_flat(self, announcement: Announcement) -> RoutingTable:
        """The three-stage sweep over flat arrays and plain path tuples.

        A route is just its AS-path tuple (``path[0]`` the holder,
        ``path[1]`` the next hop, ``path[-1]`` the origin); a node's
        equal-best set is ``(tier, [paths])`` with ``paths[0]`` primary.
        Every ordering decision — BFS-level candidate discovery order,
        the hot-potato sort key, heap entry tuples, equal-best caps and
        dedup — mirrors :meth:`_compute_dict` exactly, so the packed
        table it returns encodes byte-identically.  Runs only when no
        provenance capture is active (trails need the dict path's
        ``Route`` objects).
        """
        from repro.routing.flat import FlatRoutingTable

        topo = self._topology
        adj = self._adjacency()
        origin_spec: dict[int, OriginSpec] = {
            spec.site_node: spec for spec in announcement.origins
        }
        for site in origin_spec:
            if not topo.has_node(site):
                raise ValueError(f"announcement origin {site} not in topology")

        exit_km = adj.exit_km
        max_equal = self.MAX_EQUAL_BEST

        best: dict[int, tuple[int, list[tuple[int, ...]]]] = {
            site: (int(PrefTier.ORIGIN), [(site,)]) for site in origin_spec
        }

        def may_export(exporter: int, neighbor: int) -> bool:
            spec = origin_spec.get(exporter)
            return spec is None or spec.announces_to(neighbor)

        splits = 0

        def settle(
            node: int, paths: list[tuple[int, ...]]
        ) -> list[tuple[int, ...]]:
            """Hot-potato sort + equal-best cap (cf. :meth:`_make_choice`)."""
            nonlocal splits
            if len(paths) > 1:
                paths.sort(
                    key=lambda path: (exit_km(node, path[1]), path[1], path[-1])
                )
                del paths[max_equal:]
                if len(paths) > 1:
                    splits += 1
            return paths

        # --- Stage 1: customer routes up ------------------------------
        with obs.span("routing.stage1_customer"):
            export_checks = 0
            routes_pushed = 0
            customer_tier = int(PrefTier.CUSTOMER)
            providers = adj.providers
            frontier = list(origin_spec)
            while frontier:
                candidates: dict[int, list[tuple[int, ...]]] = {}
                for u in frontier:
                    path_u = best[u][1][0]
                    for p in providers(u):
                        if p in best:
                            continue
                        export_checks += 1
                        if not may_export(u, p):
                            continue
                        if p in path_u:
                            continue
                        routes_pushed += 1
                        extended = (p,) + path_u
                        held = candidates.get(p)
                        if held is None:
                            candidates[p] = [extended]
                        else:
                            held.append(extended)
                frontier = []
                for p, paths in candidates.items():
                    # BFS level fixes the hop count, so all are equal-best.
                    best[p] = (customer_tier, settle(p, paths))
                    frontier.append(p)
            obs.counter.inc("routing.export_checks", export_checks)
            obs.counter.inc("routing.routes_pushed", routes_pushed)
            if splits:
                obs.counter.inc("routing.equal_best_splits", splits)
                splits = 0

        # --- Stage 2: peer routes, one lateral hop ---------------------
        with obs.span("routing.stage2_peer"):
            export_checks = 0
            routes_pushed = 0
            peers = adj.peers
            peer_candidates: dict[
                int, tuple[list[int], list[tuple[int, ...]]]
            ] = {}
            for u, (_tier_u, paths_u) in best.items():
                path_u = paths_u[0]
                for v, tier in peers(u):
                    if v in best:
                        continue
                    export_checks += 1
                    if not may_export(u, v):
                        continue
                    if v in path_u:
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
                best[v] = (top_tier, settle(v, equal))
            obs.counter.inc("routing.export_checks", export_checks)
            obs.counter.inc("routing.routes_pushed", routes_pushed)
            if splits:
                obs.counter.inc("routing.equal_best_splits", splits)
                splits = 0

        # --- Stage 3: provider routes down ------------------------------
        with obs.span("routing.stage3_provider"):
            export_checks = 0
            routes_pushed = 0
            customers = adj.customers
            provider_tier = int(PrefTier.PROVIDER)
            heap: list[tuple[int, float, int, int, int]] = []
            path_of_entry: dict[
                tuple[int, float, int, int, int], tuple[int, ...]
            ] = {}

            def push(path: tuple[int, ...], via: int) -> None:
                nonlocal routes_pushed
                routes_pushed += 1
                entry = (
                    len(path) - 1,
                    exit_km(path[0], via),
                    via,
                    path[-1],
                    path[0],
                )
                path_of_entry[entry] = path
                heapq.heappush(heap, entry)

            for u, (_tier_u, paths_u) in best.items():
                path_u = paths_u[0]
                for c in customers(u):
                    if c in best:
                        continue
                    export_checks += 1
                    if not may_export(u, c):
                        continue
                    if c in path_u:
                        continue
                    push((c,) + path_u, u)
            provider_paths: dict[int, list[tuple[int, ...]]] = {}
            provider_hops: dict[int, int] = {}
            while heap:
                entry = heapq.heappop(heap)
                path = path_of_entry.pop(entry)
                node = entry[4]
                if node in best:
                    continue
                assigned = provider_hops.get(node)
                if assigned is None:
                    # First (best) provider route: assign and export onward.
                    provider_hops[node] = entry[0]
                    provider_paths[node] = [path]
                    for c in customers(node):
                        if c in best:
                            continue
                        if c in path:
                            continue
                        push((c,) + path, node)
                elif entry[0] == assigned:
                    # Equal-best alternate via a different neighbor.
                    existing = provider_paths[node]
                    via = path[1]
                    if (
                        len(existing) < max_equal
                        and all(p[1] != via for p in existing)
                    ):
                        existing.append(path)
                # Longer provider routes are simply ignored.
            for node, paths in provider_paths.items():
                best[node] = (provider_tier, settle(node, paths))
            obs.counter.inc("routing.export_checks", export_checks)
            obs.counter.inc("routing.routes_pushed", routes_pushed)
            if splits:
                obs.counter.inc("routing.equal_best_splits", splits)

        table = FlatRoutingTable.from_rows(
            announcement,
            topo.version,
            topo.num_nodes,
            (
                (node, tier, paths)
                for node, (tier, paths) in best.items()
            ),
        )
        obs.gauge.set("routing.routed_nodes", len(best))
        return table
