"""Shared experiment-result plumbing."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Protocol

from repro import obs


class ExperimentResult(Protocol):
    """Every experiment's result renders to paper-style text."""

    experiment_id: str

    def render(self) -> str:  # pragma: no cover - protocol
        ...


@dataclass
class TextResult:
    """A generic result: an id, a title, and pre-rendered sections."""

    experiment_id: str
    title: str
    sections: list[str] = field(default_factory=list)
    #: Structured key→value headline numbers for EXPERIMENTS.md.
    headline: dict[str, object] = field(default_factory=dict)

    def add(self, section: str) -> None:
        self.sections.append(section)

    def render(self) -> str:
        header = f"== {self.experiment_id}: {self.title} =="
        return "\n\n".join([header, *self.sections])


def experiment_name(module: object) -> str:
    """The short name an experiment module is addressed by (``fig1``...)."""
    return getattr(module, "__name__", str(module)).rsplit(".", 1)[-1]


def run_instrumented(
    module: Any, description: str, world: Any
) -> tuple[Any, obs.SpanRecord | None]:
    """Run one experiment module under an ``experiment.<name>`` span.

    Returns ``(result, span_record)``; the record carries the measured
    wall/CPU time and is None when no recorder is installed.
    """
    name = experiment_name(module)
    # The experiment registry is the one place a span name is assembled:
    # every possible value still matches the static `experiment.<name>`
    # shape that trend series key on.
    with obs.span(f"experiment.{name}", description=description) as active:  # repro-lint: disable=obs-span-literal -- registry-driven, shape-stable
        result = module.run(world)
    return result, active.record
