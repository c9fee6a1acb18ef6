"""Catchment diffing: attribute each flipped client to a BGP decision.

Compares the realised catchments of two announcements (regional prefix
vs global prefix, or pre/post a topology change) and, for every client
whose landing site flipped, walks both forwarding paths to the *pivot* —
the last AS the paths share — and reads that AS's recorded selection
trails from both tables.  The pair of winning preference tiers names the
decision that changed:

- ``prefer-customer`` — one world's pivot held a *customer* route the
  other world's prefix never reached (absent from the customer cone), so
  the pivot fell back to a peer/provider route toward a different site.
  This is the paper's §5.4 *AS-relationship override* (44.1% of improved
  cases), read from ground truth instead of inferred from traceroutes.
- ``prefer-public-peer`` — public peer vs route-server route (§5.4
  *peering-type override*, 1.6%).
- ``prefer-peer`` — peer route in one world, provider fallback in the
  other: the same Gao-Rexford preference one rung down.
- ``hot-potato`` — same tier and path length; only the geographic
  equal-best exit differed.
- ``shorter-path`` — same tier, different AS-path length.
- ``unknown`` — trails missing or a tier pair outside the taxonomy.

Unlike :mod:`repro.analysis.cases`, which deliberately plays by an
analyst's rules (traceroute-visible hops only, published route-server
feeds only), this reads the simulator's recorded decisions — its
*unknown* bucket should therefore be strictly smaller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.explain.provenance import EXPLAIN_SCHEMA, SelectionTrail

if TYPE_CHECKING:
    from repro.explain.journey import ExplainSession
    from repro.routing.route import Announcement
    from repro.topology.graph import Topology

#: Attribution cases, in render order.
CASES = (
    "prefer-customer",
    "prefer-public-peer",
    "prefer-peer",
    "hot-potato",
    "shorter-path",
    "unknown",
)

#: How explain cases map onto the §5.4 bucket names of
#: :class:`repro.analysis.cases.CaseType` (cases without a paper bucket
#: fold into *unknown* there).
SEC54_BUCKET = {
    "prefer-customer": "as-relationship-override",
    "prefer-public-peer": "peering-type-override",
}


@dataclass(frozen=True)
class FlipAttribution:
    """Why one client's landing site differs between two tables."""

    probe_id: int
    #: Last AS shared by both forwarding paths — where they diverge.
    pivot: int
    origin_a: int
    origin_b: int
    #: One of :data:`CASES`.
    case: str
    #: Winning tier at the pivot in table A / table B.
    tier_a: str
    tier_b: str
    detail: str

    def to_dict(self) -> dict[str, object]:
        return {
            "probe": self.probe_id,
            "pivot": self.pivot,
            "origin_a": self.origin_a,
            "origin_b": self.origin_b,
            "case": self.case,
            "tier_a": self.tier_a,
            "tier_b": self.tier_b,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class CatchmentDiff:
    """Aggregate of a two-table catchment comparison."""

    label_a: str
    label_b: str
    prefix_a: str
    prefix_b: str
    #: Probes compared (reachable in both tables).
    total: int
    unreachable: int
    flips: tuple[FlipAttribution, ...]

    def counts(self) -> dict[str, int]:
        counts = {case: 0 for case in CASES}
        for flip in self.flips:
            counts[flip.case] += 1
        return counts

    def to_dict(self, topology: "Topology") -> dict[str, object]:
        from repro.explain.journey import node_label

        nodes = {f.pivot for f in self.flips}
        nodes.update(f.origin_a for f in self.flips)
        nodes.update(f.origin_b for f in self.flips)
        return {
            "schema": EXPLAIN_SCHEMA,
            "label_a": self.label_a,
            "label_b": self.label_b,
            "prefix_a": self.prefix_a,
            "prefix_b": self.prefix_b,
            "total": self.total,
            "unreachable": self.unreachable,
            "counts": self.counts(),
            "flips": [f.to_dict() for f in self.flips],
            "names": {str(n): node_label(topology, n) for n in sorted(nodes)},
        }


def _tier_pair_case(tier_a: str, tier_b: str, hops_a: int, hops_b: int) -> str:
    """Name the decision change behind a (tier_a, tier_b) pivot pair."""
    tiers = {tier_a, tier_b}
    if "customer" in tiers and tiers & {"peer", "rs_peer", "provider"}:
        return "prefer-customer"
    if tiers == {"peer", "rs_peer"}:
        return "prefer-public-peer"
    if "provider" in tiers and tiers & {"peer", "rs_peer"}:
        return "prefer-peer"
    if tier_a == tier_b:
        return "hot-potato" if hops_a == hops_b else "shorter-path"
    return "unknown"


def attribute_flip(
    probe_id: int,
    path_a: tuple[int, ...],
    path_b: tuple[int, ...],
    trail_a_of: dict[int, SelectionTrail],
    trail_b_of: dict[int, SelectionTrail],
) -> FlipAttribution:
    """Attribute one flipped client to the decision at the pivot AS.

    ``trail_*_of`` map node id to that table's recorded selection trail
    (see :meth:`ExplainSession.table_for`, which fills them).
    """
    idx = 0
    while idx < len(path_a) and idx < len(path_b) and path_a[idx] == path_b[idx]:
        idx += 1
    pivot = path_a[idx - 1] if idx > 0 else path_a[0]
    trail_a = trail_a_of.get(pivot)
    trail_b = trail_b_of.get(pivot)
    if trail_a is None or trail_b is None:
        return FlipAttribution(
            probe_id=probe_id, pivot=pivot,
            origin_a=path_a[-1], origin_b=path_b[-1],
            case="unknown", tier_a="?", tier_b="?",
            detail="no selection trail recorded at the pivot",
        )
    case = _tier_pair_case(
        trail_a.winner_tier, trail_b.winner_tier,
        trail_a.winner_hops, trail_b.winner_hops,
    )
    detail = (
        f"pivot held a {trail_a.winner_tier} route "
        f"({trail_a.winner_hops} hops) vs a {trail_b.winner_tier} route "
        f"({trail_b.winner_hops} hops)"
    )
    return FlipAttribution(
        probe_id=probe_id, pivot=pivot,
        origin_a=path_a[-1], origin_b=path_b[-1],
        case=case, tier_a=trail_a.winner_tier, tier_b=trail_b.winner_tier,
        detail=detail,
    )


def diff_catchments(
    session: "ExplainSession",
    announcement_a: "Announcement",
    announcement_b: "Announcement",
    label_a: str = "a",
    label_b: str = "b",
    probe_ids: list[int] | None = None,
) -> CatchmentDiff:
    """Compare realised catchments of two announcements, probe by probe.

    Both tables are computed with capture on, so every flip can be read
    back against the pivot's recorded decisions in both worlds.
    """
    from repro.routing.forwarding import trace_forwarding_path

    world = session.world
    table_a = session.table_for(announcement_a)
    table_b = session.table_for(announcement_b)
    prefix_a = str(announcement_a.prefix)
    prefix_b = str(announcement_b.prefix)
    trail_a_of = {
        node: trail
        for (prefix, node), trail in session.recorder.selection.items()
        if prefix == prefix_a
    }
    trail_b_of = {
        node: trail
        for (prefix, node), trail in session.recorder.selection.items()
        if prefix == prefix_b
    }
    probes = (
        world.usable_probes
        if probe_ids is None
        else [world.probe_by_id[pid] for pid in probe_ids]
    )
    total = 0
    unreachable = 0
    flips: list[FlipAttribution] = []
    for probe in probes:
        path_a = trace_forwarding_path(
            session.topology, table_a, probe.as_node,
            probe.location, probe.last_mile_ms,
        )
        path_b = trace_forwarding_path(
            session.topology, table_b, probe.as_node,
            probe.location, probe.last_mile_ms,
        )
        if path_a is None or path_b is None:
            unreachable += 1
            continue
        total += 1
        if path_a.origin == path_b.origin:
            continue
        flips.append(attribute_flip(
            probe.probe_id, path_a.node_path, path_b.node_path,
            trail_a_of, trail_b_of,
        ))
    return CatchmentDiff(
        label_a=label_a, label_b=label_b,
        prefix_a=prefix_a, prefix_b=prefix_b,
        total=total, unreachable=unreachable, flips=tuple(flips),
    )


def diff_regional_vs_global(
    session: "ExplainSession",
    probe_ids: list[int] | None = None,
) -> CatchmentDiff:
    """§5.4-style diff: global deployment vs each client's regional prefix.

    Probes are grouped by the regional address their (LDNS) DNS query
    resolved to; each group is diffed against the global announcement and
    the results are merged.  A flip here is a client whose landing site
    under regional anycast differs from its global-anycast catchment —
    the population §5.4 attributes.
    """
    from repro.dnssim.resolver import DnsMode

    world = session.world
    global_ann = session.announcement_for(world.imperva.ns.address)
    answers = world.resolve_all(world.im6_service, DnsMode.LDNS)
    wanted = set(probe_ids) if probe_ids is not None else None
    by_addr: dict[object, list[int]] = {}
    for pid, addr in sorted(answers.items()):
        if wanted is not None and pid not in wanted:
            continue
        by_addr.setdefault(addr, []).append(pid)
    total = 0
    unreachable = 0
    flips: list[FlipAttribution] = []
    prefixes: list[str] = []
    for addr in sorted(by_addr, key=str):
        regional_ann = session.announcement_for(addr)
        part = diff_catchments(
            session, global_ann, regional_ann,
            label_a="global", label_b="regional",
            probe_ids=by_addr[addr],
        )
        total += part.total
        unreachable += part.unreachable
        flips.extend(part.flips)
        if part.prefix_b not in prefixes:
            prefixes.append(part.prefix_b)
    return CatchmentDiff(
        label_a="global", label_b="regional (per-client)",
        prefix_a=str(global_ann.prefix), prefix_b=", ".join(prefixes),
        total=total, unreachable=unreachable, flips=tuple(flips),
    )


def render_diff_dict(data: dict[str, object], max_examples: int = 3) -> str:
    """Render a serialised diff: per-case counts plus example flips."""
    names = data.get("names") or {}
    assert isinstance(names, dict)

    def label(node: object) -> str:
        return str(names.get(str(node), f"node {node}"))

    lines = [
        f"== catchment diff: {data.get('label_a')} ({data.get('prefix_a')}) "
        f"vs {data.get('label_b')} ({data.get('prefix_b')}) ==",
        f"probes compared: {data.get('total')} "
        f"(unreachable skipped: {data.get('unreachable')})",
    ]
    flips = data.get("flips") or []
    assert isinstance(flips, list)
    counts = data.get("counts") or {}
    assert isinstance(counts, dict)
    lines.append(f"flipped clients: {len(flips)}")
    for case in CASES:
        n = counts.get(case, 0)
        if not n:
            continue
        bucket = SEC54_BUCKET.get(case)
        note = f" [sec5.4: {bucket}]" if bucket else ""
        lines.append(f"  {case}: {n}{note}")
        shown = [f for f in flips if f.get("case") == case][:max_examples]
        for flip in shown:
            lines.append(
                f"    probe {flip.get('probe')}: pivot {label(flip.get('pivot'))} "
                f"{flip.get('tier_a')}->{flip.get('tier_b')}, "
                f"{label(flip.get('origin_a'))} -> {label(flip.get('origin_b'))}"
            )
    return "\n".join(lines)
