"""Golden forwarding digests on the small world.

Every ping and traceroute the experiments consume comes out of the
hot-potato forwarding walk.  These digests pin its results bit for bit:
each RTT enters the hash through ``repr``, so a change in the order
kilometres or per-interconnect latencies are summed shows up here even
when every experiment still passes its tolerance bands.
"""

from __future__ import annotations

import hashlib

from repro.measurement.engine import ServiceRegistry
from repro.routing.forwarding import trace_forwarding_path

#: Ping + traceroute of every registered address from every usable probe.
FULL_DIGEST = (
    "dc3fe0108629d0a5fe15e5299e6c6fbdcc26dca8a6aa1638f606e56cced9e61a"
)
#: The same over every 25th usable probe, from any engine.
SUBSET_DIGEST = (
    "5aa7456f5dc99b5f6c67e1b40f1ffc9792375d0342a96d31ab750aefa81e2006"
)
#: ``primary_only`` walks over the same probe subset.
PRIMARY_ONLY_DIGEST = (
    "27fa02fd0451adde08ae87bbf600611bceb5e48840b9be2031043625e7d2f593"
)

SUBSET_STRIDE = 25


def _ping_line(ping) -> str:
    return f"P|{ping.probe_id}|{ping.target}|{ping.rtt_ms!r}|{ping.catchment}"


def _trace_line(trace) -> str:
    catchment = trace.path.origin if trace.path is not None else None
    hops = ";".join(f"{hop.addr}@{hop.rtt_ms!r}" for hop in trace.hops)
    return (
        f"T|{trace.probe_id}|{trace.target}|{trace.reached}|{catchment}|{hops}"
    )


def _measure(engine, probes, addrs) -> str:
    digest = hashlib.sha256()
    for addr in addrs:
        for probe in probes:
            digest.update(_ping_line(engine.ping(probe, addr)).encode())
            digest.update(_trace_line(engine.traceroute(probe, addr)).encode())
    return digest.hexdigest()


def _addresses(world):
    """The 27 prefixes the world registers when it is built.

    Experiments register more on the shared session world, so the list
    comes from the deployments, in the world's registration order.
    """
    registry = ServiceRegistry()
    for deployment in (world.edgio.eg3, world.edgio.eg4, world.imperva.im6,
                       world.imperva.ns, world.tangled):
        deployment.register(registry)
    return [a.prefix.address(1) for a in registry.announcements()]


def _subset(world):
    return world.usable_probes[::SUBSET_STRIDE]


class TestGoldenForwardingDigest:
    def test_shape(self, small_world):
        assert len(_addresses(small_world)) == 27
        assert len(small_world.usable_probes) == 775
        assert len(_subset(small_world)) == 31

    def test_every_probe_every_address(self, small_world):
        digest = hashlib.sha256()
        for addr in _addresses(small_world):
            pings = small_world.ping_all(addr)
            traces = small_world.trace_all(addr)
            for probe in small_world.usable_probes:
                digest.update(_ping_line(pings[probe.probe_id]).encode())
                digest.update(_trace_line(traces[probe.probe_id]).encode())
        assert digest.hexdigest() == FULL_DIGEST

    def test_probe_subset(self, small_world):
        digest = _measure(
            small_world.engine, _subset(small_world), _addresses(small_world)
        )
        assert digest == SUBSET_DIGEST

    def test_primary_only(self, small_world):
        digest = hashlib.sha256()
        for addr in _addresses(small_world):
            table = small_world.engine.table_for(addr)
            for probe in _subset(small_world):
                path = trace_forwarding_path(
                    small_world.topology, table, probe.as_node, probe.location,
                    last_mile_ms=probe.last_mile_ms, primary_only=True,
                )
                if path is None:
                    line = f"{probe.probe_id}|{addr}|None"
                else:
                    hops = ";".join(
                        f"{hop.addr}@{hop.rtt_ms!r}" for hop in path.hops
                    )
                    line = (
                        f"{probe.probe_id}|{addr}|{path.origin}|"
                        f"{path.node_path}|{path.rtt_ms!r}|"
                        f"{path.distance_km!r}|{hops}"
                    )
                digest.update(line.encode())
        assert digest.hexdigest() == PRIMARY_ONLY_DIGEST

