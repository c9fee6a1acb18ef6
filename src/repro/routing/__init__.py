"""BGP policy routing over the AS topology.

This package computes, for every node in a topology, the route BGP would
select toward an anycast (or unicast) prefix, honouring the policies the
paper identifies as the root causes of catchment inefficiency:

- **Gao-Rexford preferences** — prefer customer routes over peer routes
  over provider routes (§2.1, Fig. 1);
- **peering-type preference** — prefer public IXP peers over route-server
  peers (§5.4, Fig. 7);
- **AS-path length** as the intra-tier discriminator, which is "poorly
  correlated to performance" (§2.1);
- deterministic tie-breaks standing in for router-id comparison.

Export follows valley-free rules: routes learned from customers are
exported to everyone; routes learned from peers or providers only to
customers.  Anycast is modelled by announcing one prefix from many origin
*site nodes*; the **catchment** of a client AS is the origin site of its
selected route.

Modules:

- :mod:`repro.routing.route` — routes, equal-best route sets, preference
  tiers, announcements.
- :mod:`repro.routing.table` — the routing table every compute returns:
  one announcement's equal-best route sets in packed columns.
- :mod:`repro.routing.engine` — the three-stage route computation.
- :mod:`repro.routing.forwarding` — AS path → geographic forwarding path,
  hop addresses, and latency.
"""

from repro.routing.engine import RoutingEngine
from repro.routing.forwarding import ForwardingPath, Hop, trace_forwarding_path
from repro.routing.route import Announcement, OriginSpec, PrefTier, Route
from repro.routing.table import RoutingTable

__all__ = [
    "Announcement",
    "ForwardingPath",
    "Hop",
    "OriginSpec",
    "PrefTier",
    "Route",
    "RoutingEngine",
    "RoutingTable",
    "trace_forwarding_path",
]
