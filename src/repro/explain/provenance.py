"""Decision-provenance capture: why each routing/DNS outcome occurred.

``repro.obs`` records *how long* a run took; this module records *why*
it produced the outcome it did.  Three capture points feed it, each
guarded by the same single-``None``-check no-op pattern as
:mod:`repro.obs.recorder` so disabled runs pay nothing:

- :mod:`repro.routing.engine` stores a :class:`SelectionTrail` per node
  per prefix — every candidate route considered, the winning preference
  tier, and the tie-break that picked among equals;
- :mod:`repro.routing.forwarding` stores a :class:`ForwardingTrail` per
  walk — the hot-potato exit chosen at each hop and the alternatives it
  beat;
- :mod:`repro.dnssim.resolver` stores a :class:`DnsDecision` per query —
  the resolver profile, what the authoritative server saw, and the
  region mapping that picked the answer address.

Capture is **off by default**.  Install a recorder with
:func:`capturing` (or :func:`install`) and the same call sites populate
the recorder; :mod:`repro.explain.journey` stitches the records into
end-to-end client journeys, :mod:`repro.explain.diff` attributes
catchment flips to the specific decision that changed.

Records are plain data (ints, strings, tuples) — no routing or topology
objects — so this module imports nothing from the layers it observes
and they can import it without cycles.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

#: Serialisation schema for explain sections; bump on layout changes.
EXPLAIN_SCHEMA = 1

#: Cap on buffered breadcrumb events; prevents unbounded growth when a
#: capture session spans a large diff.
MAX_EVENTS = 10_000


# ----------------------------------------------------------------------
# Record types
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RouteCandidate:
    """One route a node considered for a prefix during selection."""

    #: Node-level path, holder first, origin site last.
    path: tuple[int, ...]
    #: Preference-tier name (``customer`` / ``peer`` / ``rs_peer`` /
    #: ``provider`` / ``origin``), lowercase.
    tier: str
    #: Neighbor the route was learned from (the holder itself at origin).
    via: int
    #: Whether the candidate made the equal-best set.
    accepted: bool
    #: Why it lost (``""`` when accepted): ``lower-tier``,
    #: ``longer-path``, ``not-exported``, ``loop``,
    #: ``equal-best-overflow``, ``held-better-tier``.
    reason: str = ""

    def to_dict(self) -> dict[str, object]:
        data: dict[str, object] = {
            "path": list(self.path),
            "tier": self.tier,
            "via": self.via,
            "accepted": self.accepted,
        }
        if self.reason:
            data["reason"] = self.reason
        return data


@dataclass(frozen=True)
class SelectionTrail:
    """The recorded route-selection decision of one node for one prefix."""

    prefix: str
    node_id: int
    #: Engine pass that assigned the route: ``stage1-customer`` /
    #: ``stage2-peer`` / ``stage3-provider`` / ``origin``.
    stage: str
    #: Winning preference-tier name (lowercase).
    winner_tier: str
    #: AS-path length of the winners.
    winner_hops: int
    #: The tie-break that ordered the equal-best set.
    tie_break: str
    candidates: tuple[RouteCandidate, ...]

    @property
    def accepted(self) -> tuple[RouteCandidate, ...]:
        return tuple(c for c in self.candidates if c.accepted)

    @property
    def rejected(self) -> tuple[RouteCandidate, ...]:
        return tuple(c for c in self.candidates if not c.accepted)

    def to_dict(self) -> dict[str, object]:
        return {
            "prefix": self.prefix,
            "node": self.node_id,
            "stage": self.stage,
            "winner_tier": self.winner_tier,
            "winner_hops": self.winner_hops,
            "tie_break": self.tie_break,
            "candidates": [c.to_dict() for c in self.candidates],
        }


@dataclass(frozen=True)
class ExitOption:
    """One equal-best exit considered at a forwarding hop."""

    next_hop: int
    #: IATA code of the interconnect city the exit would cross.
    ic_city: str
    #: Great-circle km from the packet's current location to that city.
    km: float
    chosen: bool

    def to_dict(self) -> dict[str, object]:
        return {
            "next_hop": self.next_hop,
            "ic_city": self.ic_city,
            "km": round(self.km, 1),
            "chosen": self.chosen,
        }


@dataclass(frozen=True)
class ForwardingStep:
    """The hot-potato choice made at one node of a forwarding walk."""

    node_id: int
    options: tuple[ExitOption, ...]

    @property
    def chosen(self) -> ExitOption:
        for option in self.options:
            if option.chosen:
                return option
        raise ValueError("forwarding step has no chosen exit")

    def to_dict(self) -> dict[str, object]:
        return {
            "node": self.node_id,
            "options": [o.to_dict() for o in self.options],
        }


@dataclass(frozen=True)
class ForwardingTrail:
    """Per-hop exit choices of one client walk toward a prefix."""

    prefix: str
    start_node: int
    origin: int
    steps: tuple[ForwardingStep, ...]

    def to_dict(self) -> dict[str, object]:
        return {
            "prefix": self.prefix,
            "start_node": self.start_node,
            "origin": self.origin,
            "steps": [s.to_dict() for s in self.steps],
        }


@dataclass(frozen=True)
class DnsDecision:
    """Why one probe's query got the regional address it did."""

    probe_id: int
    hostname: str
    mode: str
    resolver_addr: str
    resolver_public: bool
    ecs: bool
    #: What the authoritative server saw (address or ECS subnet).
    query_source: str
    #: Country the operator's database mapped the source to (or None).
    mapped_country: str | None
    region: str
    answer: str

    def to_dict(self) -> dict[str, object]:
        return {
            "probe": self.probe_id,
            "hostname": self.hostname,
            "mode": self.mode,
            "resolver_addr": self.resolver_addr,
            "resolver_public": self.resolver_public,
            "ecs": self.ecs,
            "query_source": self.query_source,
            "mapped_country": self.mapped_country,
            "region": self.region,
            "answer": self.answer,
        }


# ----------------------------------------------------------------------
# Recorder
# ----------------------------------------------------------------------
class ProvenanceRecorder:
    """Collects decision records for one capture session.

    Trails are keyed by ``(prefix, node)`` — the natural identity of a
    BGP decision.  Forwarding trails use last-write-wins semantics per
    ``(prefix, start_node)``: two probes in the same AS overwrite each
    other, so consumers (the journey builder) read the trail immediately
    after the walk they triggered.
    """

    def __init__(self) -> None:
        #: (prefix, node_id) -> selection trail.
        self.selection: dict[tuple[str, int], SelectionTrail] = {}
        #: (prefix, start_node) -> most recent forwarding trail.
        self.forwarding: dict[tuple[str, int], ForwardingTrail] = {}
        #: (probe_id, hostname, mode) -> most recent DNS decision.
        self.dns: dict[tuple[int, str, str], DnsDecision] = {}
        #: Chronological breadcrumb events ``(name, fields)``.
        self.events: list[tuple[str, dict[str, object]]] = []
        #: Events dropped after :data:`MAX_EVENTS` was reached.
        self.events_dropped = 0

    # -- typed stores ---------------------------------------------------
    def record_selection(self, trail: SelectionTrail) -> None:
        self.selection[(trail.prefix, trail.node_id)] = trail

    def record_forwarding(self, trail: ForwardingTrail) -> None:
        self.forwarding[(trail.prefix, trail.start_node)] = trail

    def record_dns(self, decision: DnsDecision) -> None:
        self.dns[(decision.probe_id, decision.hostname, decision.mode)] = decision

    # -- breadcrumbs ----------------------------------------------------
    def emit(self, name: str, **fields: object) -> None:
        """Append one breadcrumb event (bounded by :data:`MAX_EVENTS`)."""
        if len(self.events) >= MAX_EVENTS:
            self.events_dropped += 1
            return
        self.events.append((name, dict(fields)))

    def event_counts(self) -> dict[str, int]:
        """How many times each breadcrumb event fired, by name."""
        counts: dict[str, int] = {}
        for name, _fields in self.events:
            counts[name] = counts.get(name, 0) + 1
        return counts

    # -- lookups --------------------------------------------------------
    def selection_for(self, prefix: str, node_id: int) -> SelectionTrail | None:
        return self.selection.get((prefix, node_id))

    def forwarding_for(self, prefix: str, start_node: int) -> ForwardingTrail | None:
        return self.forwarding.get((prefix, start_node))

    def dns_for(self, probe_id: int, hostname: str, mode: str) -> DnsDecision | None:
        return self.dns.get((probe_id, hostname, mode))

    def clear(self) -> None:
        self.selection.clear()
        self.forwarding.clear()
        self.dns.clear()
        self.events.clear()
        self.events_dropped = 0

    def __len__(self) -> int:
        return len(self.selection) + len(self.forwarding) + len(self.dns)


#: The process-local recorder; None means capture is disabled.
_CURRENT: ProvenanceRecorder | None = None


def install(recorder: ProvenanceRecorder | None) -> ProvenanceRecorder | None:
    """Make ``recorder`` the process-local recorder (None disables)."""
    global _CURRENT
    _CURRENT = recorder
    return recorder


def uninstall() -> ProvenanceRecorder | None:
    """Remove the installed recorder; returns it."""
    global _CURRENT
    recorder = _CURRENT
    _CURRENT = None
    return recorder


def active() -> ProvenanceRecorder | None:
    """The installed recorder, or None when capture is disabled.

    Hot code fetches this **once** per batch (per route computation, per
    forwarding walk, per query) and guards every capture site with
    ``if prov is not None`` — the disabled path is one global load and a
    ``None`` check, with no per-route allocation.
    """
    return _CURRENT


@contextmanager
def capturing() -> Iterator[ProvenanceRecorder]:
    """Install a fresh recorder for the duration of the block.

    Restores whatever recorder (or None) was installed before, so
    capture sessions nest safely.
    """
    global _CURRENT
    previous = _CURRENT
    recorder = ProvenanceRecorder()
    _CURRENT = recorder
    try:
        yield recorder
    finally:
        _CURRENT = previous


def emit(name: str, **fields: object) -> None:
    """Module-level breadcrumb facade; no-op when capture is disabled.

    Event names must be static dotted-string literals — the
    ``explain-event-literal`` lint rule enforces it, for the same reason
    ``obs-span-literal`` does: downstream tooling groups and counts
    events by name verbatim.
    """
    recorder = _CURRENT
    if recorder is not None:
        recorder.emit(name, **fields)
