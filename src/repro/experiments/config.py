"""Experiment configuration: scales and seeds.

All experiments are deterministic functions of one
:class:`ExperimentConfig`.  Three presets are provided:

- :data:`DEFAULT` — the paper-scale world every number in EXPERIMENTS.md
  comes from;
- :data:`SMALL` — a reduced world for unit tests and quick benchmark
  iterations (same structure, fewer stubs and probes);
- :data:`LARGE` — ~5k ASes, the smallest tier where parallel routing
  computes beat serial (fork/stage overhead amortizes).

LARGE adds an IX-ring (private peering between transit members of
consecutive IXPs, the seed-emulator pattern) and shrinks per-AS
infrastructure prefixes so its thousands of ASes fit the 10/8 pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.measurement.probes import ProbeParams
from repro.topology.builder import TopologyParams


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that parameterises a world build."""

    name: str = "default"
    topology: TopologyParams = field(default_factory=TopologyParams)
    probes: ProbeParams = field(default_factory=ProbeParams)
    #: Seeds for the non-topology layers.
    deployment_seed: int = 101
    geodb_seed: int = 202
    rdns_seed: int = 303
    resolver_seed: int = 404
    measurement_seed: int = 505
    survey_seed: int = 606

    def scaled(self, name: str, num_stubs: int, num_probes: int) -> "ExperimentConfig":
        """A copy with a different world size (same seeds)."""
        return replace(
            self,
            name=name,
            topology=replace(self.topology, num_stubs=num_stubs),
            probes=replace(self.probes, num_probes=num_probes),
        )


#: The paper-scale default world.
DEFAULT = ExperimentConfig()

#: A small world for tests and fast benchmark iteration.
SMALL = DEFAULT.scaled("small", num_stubs=300, num_probes=900)

#: ~5k ASes (12 tier-1 + 600 transit + 4400 stubs): the parallel
#: crossover tier — big enough that per-announcement compute dominates
#: fork/stage overhead.
LARGE = ExperimentConfig(
    name="large",
    topology=TopologyParams(
        num_tier1=12,
        num_transit=600,
        num_stubs=4400,
        transit_infra_prefix=21,
        stub_infra_prefix=24,
        ixp_ring=True,
    ),
    probes=replace(DEFAULT.probes, num_probes=3000),
)

#: Every named preset, smallest first.
CONFIGS: tuple[ExperimentConfig, ...] = (SMALL, DEFAULT, LARGE)


def by_name(name: str) -> ExperimentConfig:
    """The preset named ``name``; raises ``KeyError`` when unknown."""
    for config in CONFIGS:
        if config.name == name:
            return config
    raise KeyError(f"unknown experiment config {name!r}")
