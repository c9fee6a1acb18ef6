"""Shared fixtures: session-scoped worlds and micro-topologies.

Building a world costs ~0.5 s; integration tests share one small world
(and its measurement caches) per session instead of rebuilding.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import SMALL
from repro.experiments.world import World
from repro.topology.builder import InternetBuilder, TopologyParams
from repro.topology.graph import Topology


#: A compact topology for unit tests that need a realistic graph but not
#: probe populations or CDNs.
TINY_PARAMS = TopologyParams(seed=11, num_tier1=4, num_transit=40, num_stubs=120)


@pytest.fixture(scope="session")
def tiny_topology() -> Topology:
    return InternetBuilder(TINY_PARAMS).build()


@pytest.fixture(scope="session")
def small_world() -> World:
    """The shared small experiment world (measurements cached within)."""
    return World(SMALL)
