"""Probe grouping by <city, AS> and group-median aggregation (§3.1).

RIPE Atlas probes cluster in well-connected networks; presenting raw
per-probe statistics would over-weight those networks.  The paper instead
groups probes by ``<city, AS>`` pair and uses each group's *median* value,
"to represent the performance of a client residing in the same city and
AS".  Every CDF, percentage, and percentile downstream consumes these
group medians.
"""

from __future__ import annotations

import statistics
from collections.abc import Mapping
from dataclasses import dataclass

from repro.geo.areas import Area
from repro.measurement.probes import Probe


@dataclass(frozen=True)
class ProbeGroup:
    """All usable probes sharing a ``<city, AS>`` pair."""

    city_code: str
    as_node: int
    probes: tuple[Probe, ...]

    def __post_init__(self) -> None:
        if not self.probes:
            raise ValueError("a probe group cannot be empty")

    @property
    def key(self) -> tuple[str, int]:
        return (self.city_code, self.as_node)

    @property
    def area(self) -> Area:
        return self.probes[0].area

    @property
    def country(self) -> str:
        return self.probes[0].country

    def median(self, values_by_probe: dict[int, float]) -> float | None:
        """Median of a per-probe metric over the group's probes.

        Probes missing from ``values_by_probe`` (e.g. unreachable pings)
        are skipped; returns None when no probe has a value.
        """
        values = [
            values_by_probe[p.probe_id]
            for p in self.probes
            if p.probe_id in values_by_probe
        ]
        if not values:
            return None
        return statistics.median(values)

    def majority(self, values_by_probe: Mapping[int, object]) -> object | None:
        """The most common categorical value across the group's probes.

        Ties break toward the smallest repr for determinism.  Used for
        group-level catchment sites and regional-IP assignments.
        """
        counts: dict[object, int] = {}
        for p in self.probes:
            if p.probe_id in values_by_probe:
                v = values_by_probe[p.probe_id]
                counts[v] = counts.get(v, 0) + 1
        if not counts:
            return None
        return max(counts.items(), key=lambda kv: (kv[1], -_stable_rank(kv[0])))[0]


def _stable_rank(value: object) -> float:
    """A deterministic orderable proxy for arbitrary categorical values.

    Uses a digest rather than ``hash()`` because string hashing is
    randomised per process and group majorities must be reproducible.
    """
    import hashlib

    digest = hashlib.sha256(str(value).encode()).digest()
    return float(int.from_bytes(digest[:4], "big"))


def group_probes(probes: list[Probe]) -> list[ProbeGroup]:
    """Group usable probes by ``<city, AS>``, discarding filtered probes."""
    buckets: dict[tuple[str, int], list[Probe]] = {}
    for probe in probes:
        if not probe.usable:
            continue
        buckets.setdefault((probe.city_code, probe.as_node), []).append(probe)
    groups = [
        ProbeGroup(city_code=city, as_node=asn, probes=tuple(members))
        for (city, asn), members in buckets.items()
    ]
    groups.sort(key=lambda g: g.key)
    return groups
