"""Domain-aware static analysis for the reproduction.

Two layers:

- **Layer 1** (:mod:`repro.lint.ast_checks` via :mod:`repro.lint.runner`)
  lints source code, one file at a time, for determinism hazards —
  global RNG draws, float equality, set-ordering leaks, mutable
  defaults, bare excepts, ``__all__`` drift, dynamic span and event
  names — and for writes to module state from outside its module or
  outside a capture module's install/uninstall pair, with a per-line
  ``# repro-lint: disable=RULE`` escape hatch.
- **Layer 2** (:mod:`repro.lint.invariants`) verifies computed routing
  state: valley-free paths, Gao-Rexford export conformance, equal-best
  well-formedness, registry LPM consistency, and catchment completeness.

``repro lint`` runs Layer 1 from the command line; ``repro verify
--deep`` adds Layer 2 over the freshly built world.  Whether the
persistent cache key covers the code the routing compute runs, and
whether a parallel worker's task is pure, is checked at run time by
``tests/test_compute_closure.py``.  See ``docs/static-analysis.md`` for
every rule and check id.
"""

from repro.lint.findings import RULES, Finding, RuleSpec, render_report
from repro.lint.invariants import (
    InvariantFinding,
    analyze_world,
    check_catchments,
    check_registry,
    check_table,
    render_invariant_report,
)
from repro.lint.runner import (
    default_target,
    lint_file,
    lint_paths,
    lint_source,
)

__all__ = [
    "Finding",
    "InvariantFinding",
    "RULES",
    "RuleSpec",
    "analyze_world",
    "check_catchments",
    "check_registry",
    "check_table",
    "default_target",
    "lint_file",
    "lint_paths",
    "lint_source",
    "render_invariant_report",
    "render_report",
]
