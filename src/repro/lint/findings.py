"""Finding and rule value types of the Layer-1 linter.

A :class:`Finding` is one report from the AST linter: a rule fired at a
source location.  :data:`RULES` is the registry of every Layer-1 rule id
with its one-line rationale and generic fix hint; the runner uses it to
validate ``# repro-lint: disable=`` annotations and to render
``repro lint --list-rules``.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class RuleSpec:
    """Metadata for one Layer-1 lint rule."""

    rule_id: str
    summary: str
    hint: str


#: Registry of every AST-level rule, keyed by rule id.
RULES: dict[str, RuleSpec] = {
    spec.rule_id: spec
    for spec in (
        RuleSpec(
            rule_id="unseeded-random",
            summary=(
                "call into the process-global (or unseeded) random number "
                "generator; results change between runs"
            ),
            hint=(
                "draw from a local random.Random(seed) / "
                "numpy.random.default_rng(seed) instance, or hash stable "
                "identifiers as the measurement engine does"
            ),
        ),
        RuleSpec(
            rule_id="float-equality",
            summary=(
                "== / != comparison against a float value; exact float "
                "equality is representation-dependent"
            ),
            hint=(
                "compare with math.isclose / an explicit tolerance, or "
                "restructure to compare ordering (<, <=) instead"
            ),
        ),
        RuleSpec(
            rule_id="mutable-default",
            summary=(
                "mutable default argument; the object is shared across "
                "calls and mutations leak between them"
            ),
            hint="default to None and build the container inside the body",
        ),
        RuleSpec(
            rule_id="set-iteration",
            summary=(
                "iteration over a bare set expression; set order depends "
                "on insertion history and string-hash randomisation, so "
                "downstream results can differ between processes"
            ),
            hint="wrap the set in sorted(...) before iterating",
        ),
        RuleSpec(
            rule_id="bare-except",
            summary=(
                "bare except: swallows SystemExit/KeyboardInterrupt and "
                "hides real faults as silent behaviour changes"
            ),
            hint="catch Exception (or the specific error) instead",
        ),
        RuleSpec(
            rule_id="all-drift",
            summary=(
                "__all__ names an attribute the module does not define; "
                "star-imports and API docs silently drift"
            ),
            hint="remove the stale name from __all__ or define it",
        ),
        RuleSpec(
            rule_id="obs-span-literal",
            summary=(
                "obs.span(...) name is not a static dotted-string literal; "
                "dynamic span names break trend-series matching and "
                "profiler path grouping across runs"
            ),
            hint=(
                "pass a literal like \"routing.compute\" and attach the "
                "varying part as a span attribute (obs.span(\"x\", key=v))"
            ),
        ),
        RuleSpec(
            rule_id="explain-event-literal",
            summary=(
                "provenance.emit(...) event name is not a static "
                "dotted-string literal; dynamic event names break "
                "event-count grouping across capture sessions"
            ),
            hint=(
                "pass a literal like \"routing.table-computed\" and attach "
                "the varying part as a field (provenance.emit(\"x\", key=v))"
            ),
        ),
        RuleSpec(
            rule_id="global-mutable-state",
            summary=(
                "assignment or del on an attribute of an imported name "
                "(other.LIMIT = 5); cross-module writes make module state "
                "impossible to reason about locally"
            ),
            hint=(
                "add a setter function in the owning module (so the write "
                "site is auditable) or pass the value explicitly"
            ),
        ),
        RuleSpec(
            rule_id="capture-state-leak",
            summary=(
                "global rebind of a capture-state slot (a name the "
                "module's install() rebinds) outside install/uninstall/"
                "capturing/recording; ad-hoc writes bypass the "
                "single-None-check discipline that keeps capture "
                "re-entrant and fork-safe"
            ),
            hint=(
                "route the mutation through the module's install()/"
                "uninstall() (or a capturing()/recording() context manager)"
            ),
        ),
        RuleSpec(
            rule_id="parse-error",
            summary="file could not be parsed as Python",
            hint="fix the syntax error",
        ),
    )
}


@dataclass(frozen=True, order=True)
class Finding:
    """One report: a rule fired at ``path:line``."""

    path: str
    line: int
    rule: str
    message: str
    hint: str = field(default="", compare=False)

    def render(self) -> str:
        text = f"{self.path}:{self.line}: [{self.rule}] {self.message}"
        if self.hint:
            text += f" (fix: {self.hint})"
        return text

    def to_dict(self) -> dict[str, object]:
        """JSON-ready form (machine-readable findings output)."""
        return {
            "path": self.path,
            "line": self.line,
            "rule": self.rule,
            "message": self.message,
            "hint": self.hint,
        }


def render_report(findings: list[Finding]) -> str:
    """Human-readable multi-line report, stable order."""
    if not findings:
        return "repro-lint: no findings"
    lines = [f.render() for f in sorted(findings)]
    lines.append(
        f"repro-lint: {len(findings)} finding"
        f"{'s' if len(findings) != 1 else ''}"
    )
    return "\n".join(lines)
