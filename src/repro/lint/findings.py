"""Finding and rule value types shared by both analysis layers.

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
            rule_id="parse-error",
            summary="file could not be parsed as Python",
            hint="fix the syntax error",
        ),
        # ------------------------------------------------------------
        # Layer-3 (whole-program) rules — repro lint --deep-static
        # ------------------------------------------------------------
        RuleSpec(
            rule_id="fork-global-write",
            summary=(
                "function reachable from a fork-worker entrypoint writes a "
                "module-level global; forked workers inherit parent state "
                "copy-on-write and divergent writes break the serial == "
                "parallel determinism contract"
            ),
            hint=(
                "pass state through task arguments, stage it in an "
                "allowlisted _init_*_worker initializer, or disable with a "
                "comment explaining why the write is idempotent and "
                "content-derived"
            ),
        ),
        RuleSpec(
            rule_id="fork-env-mutation",
            summary=(
                "function reachable from a fork-worker entrypoint mutates "
                "os.environ; environment writes in one worker are invisible "
                "to siblings and the parent, so behaviour depends on which "
                "process ran the code"
            ),
            hint=(
                "read configuration once in the parent and ship it via task "
                "arguments or the worker initializer"
            ),
        ),
        RuleSpec(
            rule_id="fork-unseeded-entropy",
            summary=(
                "function reachable from a fork-worker entrypoint draws "
                "from an unseeded entropy source; forked workers either "
                "share the parent RNG state (identical 'random' draws) or "
                "reseed on exec, so results depend on the worker count"
            ),
            hint=(
                "derive randomness from task-stable identifiers (hash a "
                "seed + key) or ship a seeded generator per task"
            ),
        ),
        RuleSpec(
            rule_id="fork-wallclock",
            summary=(
                "function reachable from a fork-worker entrypoint reads the "
                "wall clock; wall-clock values differ per worker and per "
                "run, so they must not influence computed results "
                "(monotonic/perf counters for durations are fine)"
            ),
            hint=(
                "use time.perf_counter()/process_time() for durations, or "
                "stamp times in the parent after the parallel region"
            ),
        ),
        RuleSpec(
            rule_id="fork-module-resource",
            summary=(
                "module reachable from a fork-worker entrypoint creates a "
                "lock/file/socket at module scope; such resources are "
                "duplicated into forked children in an undefined state "
                "(held locks deadlock, shared fds interleave writes)"
            ),
            hint=(
                "create the resource lazily inside the function that uses "
                "it, or re-create it in an _init_*_worker initializer"
            ),
        ),
        RuleSpec(
            rule_id="capture-state-leak",
            summary=(
                "capture-state global (a binding written by its module's "
                "install/uninstall pair) is mutated outside the sanctioned "
                "install/uninstall/capturing/recording functions; ad-hoc "
                "writes bypass the single-None-check discipline that keeps "
                "observability capture re-entrant and fork-safe"
            ),
            hint=(
                "route the mutation through the module's install()/"
                "uninstall() (or a capturing()/recording() context manager)"
            ),
        ),
        RuleSpec(
            rule_id="global-mutable-state",
            summary=(
                "module-level binding of another module is reassigned from "
                "outside it; cross-module writes make module state "
                "impossible to reason about locally and defeat the purity "
                "inventory"
            ),
            hint=(
                "add a setter function in the owning module (so the write "
                "site is auditable) or pass the value explicitly"
            ),
        ),
        RuleSpec(
            rule_id="cache-key-gap",
            summary=(
                "module reachable from the cached-compute path is not "
                "folded into the persistent cache key; editing it could "
                "change results without invalidating cached routing tables"
            ),
            hint=(
                "add the module to FINGERPRINT_MODULES in repro/par/"
                "cache.py (over-invalidation is safe; silent staleness is "
                "not)"
            ),
        ),
        RuleSpec(
            rule_id="baseline-stale",
            summary=(
                "baseline file entry matches no current finding; the "
                "underlying issue was fixed (or the symbol renamed) and the "
                "suppression must not outlive it"
            ),
            hint="delete the stale entry from the baseline file",
        ),
    )
}

#: Rule ids produced only by the Layer-3 whole-program passes.
DEEP_RULE_IDS = frozenset({
    "fork-global-write",
    "fork-env-mutation",
    "fork-unseeded-entropy",
    "fork-wallclock",
    "fork-module-resource",
    "capture-state-leak",
    "global-mutable-state",
    "cache-key-gap",
    "baseline-stale",
})


@dataclass(frozen=True, order=True)
class Finding:
    """One report: a rule fired at ``path:line``.

    Layer-3 findings also carry ``symbol`` — the qualified name of the
    function/binding/module the finding is about.  Baseline entries match
    on ``(rule, symbol)`` so they survive unrelated line-number churn.
    """

    path: str
    line: int
    rule: str
    message: str
    hint: str = field(default="", compare=False)
    symbol: str = field(default="", compare=False)

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
            "symbol": self.symbol,
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
