"""Layer 2: routing-model invariant analysis.

Where :mod:`repro.lint.ast_checks` inspects *source*, this module
inspects *results*: given a built :class:`~repro.topology.graph.Topology`
and the routing tables computed over it, it verifies the properties every
paper claim silently assumes:

- **valley-free** — no selected AS path climbs a customer→provider edge
  or crosses a second peering edge after it has gone down or lateral;
- **Gao-Rexford export conformance** — a route learned from a peer or
  provider is never found exported to another peer or provider (a route
  leak), and origin announcement restrictions are honoured;
- **equal-best well-formedness** — every stored route set shares one
  preference tier and path length, has distinct next hops, holds the
  announced prefix, and lists the deterministic hot-potato primary first;
- **LPM / registry consistency** — every registered service address
  resolves (longest-prefix match) back to its own announcement, and
  origins exist in the topology;
- **catchment completeness** — every client AS holds a route and its
  hot-potato forwarding walk terminates on exactly one announced origin
  site.

Findings are data, not exceptions: the analyzer never trusts that value
constructors enforced their invariants (that is what it is auditing).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Protocol

from repro.routing.forwarding import trace_forwarding_path
from repro.routing.route import Announcement, PrefTier, Route, RouteChoice
from repro.routing.table import RoutingTable
from repro.topology.asys import LinkKind
from repro.topology.graph import Topology, TopologyError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.measurement.engine import ServiceRegistry

#: Tiers whose routes an AS may export to peers and providers.
_EXPORTABLE_UPWARD = (PrefTier.ORIGIN, PrefTier.CUSTOMER)


@dataclass(frozen=True, order=True)
class InvariantFinding:
    """One Layer-2 report: a routing invariant does not hold."""

    check: str
    subject: str
    message: str

    def render(self) -> str:
        return f"[{self.check}] {self.subject}: {self.message}"


def render_invariant_report(findings: list[InvariantFinding]) -> str:
    if not findings:
        return "repro-lint invariants: all checks passed"
    lines = [f.render() for f in sorted(findings)]
    lines.append(
        f"repro-lint invariants: {len(findings)} violation"
        f"{'s' if len(findings) != 1 else ''}"
    )
    return "\n".join(lines)


def _path_text(path: tuple[int, ...]) -> str:
    return "<-".join(str(n) for n in path)


def _step_kind(topology: Topology, exporter: int, receiver: int) -> str | None:
    """Propagation-step kind for ``exporter`` announcing to ``receiver``.

    ``up``   — customer exported to its provider;
    ``peer`` — lateral peering step;
    ``down`` — provider exported to its customer;
    ``None`` — the two nodes share no link at all.
    """
    if not topology.has_link(exporter, receiver):
        return None
    link = topology.link_between(exporter, receiver)
    if link.kind is not LinkKind.TRANSIT:
        return "peer"
    # Transit convention: link.a is the customer, link.b the provider.
    return "up" if link.b == receiver else "down"


def _exit_km(topology: Topology, node_id: int, neighbor_id: int) -> float:
    """Independent reimplementation of the engine's hot-potato metric."""
    link = topology.link_between(node_id, neighbor_id)
    pops = topology.node(node_id).pops
    km = min(
        ic.city.location.distance_km(pop.city.location)
        for ic in link.interconnects
        for pop in pops
    )
    return round(km, 3)


# ----------------------------------------------------------------------
# Per-route checks
# ----------------------------------------------------------------------
def _check_route_path(
    topology: Topology, table: RoutingTable, route: Route
) -> Iterable[InvariantFinding]:
    """Valley-freeness and link existence along one selected path."""
    subject = f"prefix {table.prefix} path {_path_text(route.path)}"
    path = route.path
    if len(set(path)) != len(path):
        yield InvariantFinding(
            check="valley-free", subject=subject,
            message="AS path visits a node twice",
        )
        return
    # Walk in propagation order: origin first, holder last.
    state = "up"
    for i in range(len(path) - 2, -1, -1):
        exporter, receiver = path[i + 1], path[i]
        kind = _step_kind(topology, exporter, receiver)
        if kind is None:
            yield InvariantFinding(
                check="valley-free", subject=subject,
                message=f"no link between {exporter} and {receiver}",
            )
            return
        if kind == "up":
            if state != "up":
                yield InvariantFinding(
                    check="valley-free", subject=subject,
                    message=(
                        f"path climbs {exporter}->{receiver} after going "
                        "lateral or down (a valley)"
                    ),
                )
                return
        elif kind == "peer":
            if state != "up":
                yield InvariantFinding(
                    check="valley-free", subject=subject,
                    message=(
                        f"path crosses a second peering edge at "
                        f"{exporter}->{receiver}"
                    ),
                )
                return
            state = "down"
        else:
            state = "down"


def _check_route_export(
    topology: Topology, table: RoutingTable, route: Route
) -> Iterable[InvariantFinding]:
    """Gao-Rexford export conformance of one selected route."""
    if route.hops == 0:
        return
    holder = route.holder
    exporter = route.next_hop
    subject = f"prefix {table.prefix} path {_path_text(route.path)}"
    # Tier vs. actual business relationship of the learning edge.
    try:
        expected = _tier_for_edge(topology, holder, exporter)
    except TopologyError:
        return  # already reported by the path walk
    if expected is not None and expected is not route.tier:
        yield InvariantFinding(
            check="export-rules", subject=subject,
            message=(
                f"route tier {route.tier.name} does not match the "
                f"{holder}<->{exporter} relationship ({expected.name})"
            ),
        )
    exporter_choice = table.choice_at(exporter)
    if exporter_choice is None:
        yield InvariantFinding(
            check="export-rules", subject=subject,
            message=f"exporter {exporter} holds no route to re-export",
        )
        return
    if exporter_choice.hops != route.hops - 1:
        yield InvariantFinding(
            check="export-rules", subject=subject,
            message=(
                f"path length discontinuity: {holder} is {route.hops} hops "
                f"out but exporter {exporter} is {exporter_choice.hops}"
            ),
        )
    if route.tier in (PrefTier.CUSTOMER, PrefTier.PEER, PrefTier.RS_PEER):
        # The exporter sent this route to a provider or peer; Gao-Rexford
        # only permits that for its own or customer-learned routes.
        if exporter_choice.tier not in _EXPORTABLE_UPWARD:
            yield InvariantFinding(
                check="export-rules", subject=subject,
                message=(
                    f"route leak: {exporter} exported a "
                    f"{exporter_choice.tier.name}-learned route to its "
                    f"{'provider' if route.tier is PrefTier.CUSTOMER else 'peer'}"
                    f" {holder}"
                ),
            )
    # Origin announcement restrictions (§5.3 per-prefix peering).
    origin_spec = next(
        (s for s in table.announcement.origins
         if s.site_node == route.origin),
        None,
    )
    if origin_spec is None:
        yield InvariantFinding(
            check="export-rules", subject=subject,
            message=f"route originates at {route.origin}, not an "
            "announced origin site",
        )
    elif len(route.path) >= 2 and not origin_spec.announces_to(
        route.path[-2]
    ):
        yield InvariantFinding(
            check="export-rules", subject=subject,
            message=(
                f"origin {route.origin} announced to {route.path[-2]} "
                "despite its neighbor restriction"
            ),
        )


def _tier_for_edge(
    topology: Topology, holder: int, neighbor: int
) -> PrefTier | None:
    """The preference tier a route learned over this edge must carry."""
    if neighbor in topology.customers_of(holder):
        return PrefTier.CUSTOMER
    if neighbor in topology.providers_of(holder):
        return PrefTier.PROVIDER
    for peer, kind in topology.peers_of(holder):
        if peer == neighbor:
            return (
                PrefTier.RS_PEER
                if kind is LinkKind.PEER_ROUTE_SERVER
                else PrefTier.PEER
            )
    return None


# ----------------------------------------------------------------------
# Table-level checks
# ----------------------------------------------------------------------
def check_table(
    topology: Topology, table: RoutingTable
) -> list[InvariantFinding]:
    """Verify every selected route set of one routing table."""
    findings: list[InvariantFinding] = []
    origin_sites = set(table.announcement.origin_sites)
    for node_id, choice in table.best.items():
        subject = f"prefix {table.prefix} node {node_id}"
        if not choice.routes:
            findings.append(
                InvariantFinding(
                    check="equal-best", subject=subject,
                    message="empty route set",
                )
            )
            continue
        tiers = {r.tier for r in choice.routes}
        hops = {r.hops for r in choice.routes}
        if len(tiers) != 1 or len(hops) != 1:
            findings.append(
                InvariantFinding(
                    check="equal-best", subject=subject,
                    message=(
                        "equal-best set mixes tiers "
                        f"{sorted(t.name for t in tiers)} / lengths "
                        f"{sorted(hops)}"
                    ),
                )
            )
        next_hops = [r.next_hop for r in choice.routes]
        if len(set(next_hops)) != len(next_hops):
            findings.append(
                InvariantFinding(
                    check="equal-best", subject=subject,
                    message="equal-best set repeats a next hop",
                )
            )
        for route in choice.routes:
            if route.prefix != table.prefix:
                findings.append(
                    InvariantFinding(
                        check="equal-best", subject=subject,
                        message=f"route carries foreign prefix {route.prefix}",
                    )
                )
            if route.holder != node_id:
                findings.append(
                    InvariantFinding(
                        check="equal-best", subject=subject,
                        message=(
                            f"route held under node {node_id} starts at "
                            f"{route.holder}"
                        ),
                    )
                )
            if route.tier is PrefTier.ORIGIN and route.origin not in origin_sites:
                findings.append(
                    InvariantFinding(
                        check="export-rules", subject=subject,
                        message=(
                            f"origin route at {route.origin} which is not "
                            "an announced origin site"
                        ),
                    )
                )
            findings.extend(_check_route_path(topology, table, route))
            findings.extend(_check_route_export(topology, table, route))
        findings.extend(_check_primary_first(topology, table, node_id, choice))
    return findings


def _check_primary_first(
    topology: Topology, table: RoutingTable, node_id: int, choice: RouteChoice
) -> Iterable[InvariantFinding]:
    """The advertised primary must rank first under the hot-potato key."""
    if len(choice.routes) < 2:
        return
    try:
        keys = [
            (_exit_km(topology, node_id, r.next_hop), r.next_hop, r.origin)
            for r in choice.routes
        ]
    except TopologyError:
        return  # missing links are reported by the path walk
    if keys[0] != min(keys):
        yield InvariantFinding(
            check="equal-best",
            subject=f"prefix {table.prefix} node {node_id}",
            message=(
                "primary route is not the deterministic hot-potato "
                f"minimum (key {keys[0]}, best {min(keys)})"
            ),
        )


# ----------------------------------------------------------------------
# Registry and catchment checks
# ----------------------------------------------------------------------
def check_registry(
    registry: "ServiceRegistry", topology: Topology | None = None
) -> list[InvariantFinding]:
    """LPM consistency of the service registry."""
    findings: list[InvariantFinding] = []
    for announcement in registry.announcements():
        service_addr = announcement.prefix.address(1)
        subject = f"prefix {announcement.prefix}"
        resolved = registry.lookup(service_addr)
        if resolved is not announcement:
            shadow = resolved.prefix if resolved is not None else "nothing"
            findings.append(
                InvariantFinding(
                    check="registry-lpm", subject=subject,
                    message=(
                        f"service address {service_addr} resolves to "
                        f"{shadow} instead of its own announcement"
                    ),
                )
            )
        if topology is not None:
            for site in announcement.origin_sites:
                if not topology.has_node(site):
                    findings.append(
                        InvariantFinding(
                            check="registry-lpm", subject=subject,
                            message=f"origin site {site} is not in the "
                            "topology",
                        )
                    )
    return findings


def check_catchments(
    topology: Topology,
    table: RoutingTable,
    require_full_reachability: bool = True,
) -> list[InvariantFinding]:
    """Every client resolves to exactly one announced origin site."""
    findings: list[InvariantFinding] = []
    origin_sites = set(table.announcement.origin_sites)
    for node in topology.nodes():
        if node.node_id in origin_sites:
            continue
        subject = f"prefix {table.prefix} node {node.node_id} ({node.name})"
        choice = table.choice_at(node.node_id)
        if choice is None:
            if require_full_reachability and not node.is_site:
                findings.append(
                    InvariantFinding(
                        check="catchment", subject=subject,
                        message="client AS holds no route to the prefix",
                    )
                )
            continue
        path = trace_forwarding_path(
            topology, table, node.node_id, node.pops[0].city.location
        )
        if path is None:
            findings.append(
                InvariantFinding(
                    check="catchment", subject=subject,
                    message="forwarding walk fails despite a held route",
                )
            )
        elif path.origin not in origin_sites:
            findings.append(
                InvariantFinding(
                    check="catchment", subject=subject,
                    message=(
                        f"traffic lands on node {path.origin}, not an "
                        "announced origin site"
                    ),
                )
            )
    return findings


# ----------------------------------------------------------------------
# Whole-world entry point
# ----------------------------------------------------------------------
class WorldLike(Protocol):
    """Anything exposing a topology, a service registry, and an engine
    whose ``routing`` attribute is a :class:`RoutingEngine` — satisfied
    by :class:`repro.experiments.world.World` and by hand-built stacks."""

    @property
    def topology(self) -> Topology: ...

    @property
    def registry(self) -> "ServiceRegistry": ...

    @property
    def engine(self) -> "_HasRouting": ...


class _HasRouting(Protocol):
    @property
    def routing(self) -> "_ComputesTables": ...


class _ComputesTables(Protocol):
    def compute(
        self, announcement: Announcement
    ) -> RoutingTable: ...  # pragma: no cover


def analyze_world(world: WorldLike) -> list[InvariantFinding]:
    """Run every Layer-2 check over a built experiment world.

    ``world`` is duck-typed (anything with ``topology``, ``registry`` and
    ``engine.routing``) so the analyzer stays import-light and usable
    from scripts that assemble their own stack.
    """
    findings = check_registry(world.registry, world.topology)
    for announcement in world.registry.announcements():
        table = world.engine.routing.compute(announcement)
        findings.extend(check_table(world.topology, table))
        findings.extend(check_catchments(world.topology, table))
    return sorted(findings)
