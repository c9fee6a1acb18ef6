"""Shared fixtures: session-scoped worlds and micro-topologies.

Building a small world costs about 0.3 s; integration tests share one
(and its measurement caches) per session instead of rebuilding.  A test
whose work must not depend on what ran before it takes ``fresh_small``
instead.
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


@pytest.fixture(scope="module")
def fresh_small() -> World:
    """A SMALL world of its own: the shared session world gains service
    prefixes as experiments run, this one holds the build's 27."""
    world = World(SMALL)
    assert len(world.registry.announcements()) == 27
    return world
