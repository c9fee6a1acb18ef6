"""Layer 3 fork-safety pass: effects reachable from worker entrypoints.

The parallel pipeline (:mod:`repro.par`) forks workers that inherit the
parent's memory copy-on-write and must behave as pure functions of their
task arguments: the ``serial == parallel`` determinism contract
(docs/performance.md) only holds if nothing a worker executes mutates
inherited globals, touches the environment, draws fresh entropy, or
reads the wall clock into results.

This pass roots the project call graph at the worker entrypoints listed
in :data:`WORKER_ENTRYPOINTS` and walks every transitively callable
project function, flagging:

``fork-global-write``
    ``global``-declared rebinds and in-place mutation of module-level
    containers, outside the allowlist (``_init_*_worker`` initializers
    and the sanctioned capture install/uninstall pair).
``fork-env-mutation``
    writes to ``os.environ`` (subscript/del/update/pop/…) and
    ``os.putenv``/``os.unsetenv``.
``fork-unseeded-entropy``
    process-global or unseeded RNG use, plus ``os.urandom``,
    ``secrets.*``, and random ``uuid`` constructors.
``fork-wallclock``
    ``time.time()``-family and ``datetime.now()``-family reads
    (``perf_counter``/``monotonic``/``process_time`` stay legal — they
    time work, they do not enter results).
``fork-module-resource``
    locks, files, sockets, or database connections created at module
    scope in any module the closure executes in.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field

from repro.lint.ast_checks import (
    _NUMPY_RANDOM_FUNCS,
    _RANDOM_FUNCS,
    _SEEDABLE_CONSTRUCTORS,
)
from repro.lint.callgraph import (
    FunctionInfo,
    ModuleInfo,
    ProjectGraph,
    container_mutations,
    flatten_dotted,
    global_writes,
)
from repro.lint.findings import RULES, Finding

__all__ = [
    "ForkSafetyConfig",
    "WORKER_ENTRYPOINTS",
    "fork_safety_findings",
]

#: Functions the process pools execute in forked children.  Everything
#: transitively callable from here is held to the fork-safety rules.
#: New worker entrypoints must be added here (docs/static-analysis.md
#: describes the workflow).
WORKER_ENTRYPOINTS: tuple[str, ...] = (
    "repro.par.routing._init_routing_worker",
    "repro.par.routing._compute_task",
)

#: Worker initializers are *expected* to stage worker-local globals —
#: that is their whole job.  Anything matching this pattern may write
#: globals in its own body (not in its callees).
INIT_WORKER_RE = re.compile(r"(^|\.)_init_[a-z0-9_]*_worker$")

#: Functions implementing the sanctioned capture-state pattern: a single
#: module global flipped between None and an installed object.  Workers
#: legitimately call these to detach from the parent's recorder and
#: re-enter capture locally (see repro/par/obsbuf.py).
SANCTIONED_WRITER_NAMES = frozenset({"install", "uninstall"})

_WALLCLOCK_CALLS = frozenset({
    "time.time",
    "time.time_ns",
    "time.ctime",
    "time.gmtime",
    "time.localtime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
})

_ENTROPY_CALLS = frozenset({
    "os.urandom",
    "os.getrandom",
    "secrets.token_bytes",
    "secrets.token_hex",
    "secrets.token_urlsafe",
    "secrets.randbits",
    "secrets.randbelow",
    "secrets.choice",
    "uuid.uuid1",
    "uuid.uuid4",
})

_RESOURCE_CALLS = frozenset({
    "threading.Lock",
    "threading.RLock",
    "threading.Condition",
    "threading.Semaphore",
    "threading.BoundedSemaphore",
    "threading.Event",
    "multiprocessing.Lock",
    "multiprocessing.RLock",
    "multiprocessing.Queue",
    "open",
    "socket.socket",
    "sqlite3.connect",
})

_ENVIRON_METHODS = frozenset({"update", "pop", "clear", "setdefault"})


@dataclass
class ForkSafetyConfig:
    """Pass parameters; defaults target the real ``repro`` tree.

    The self-check (:mod:`repro.lint.selfcheck`) re-points ``roots`` at
    a synthetic package to prove each rule still fires.
    """

    roots: tuple[str, ...] = WORKER_ENTRYPOINTS
    init_worker_re: re.Pattern[str] = INIT_WORKER_RE
    sanctioned_writer_names: frozenset[str] = SANCTIONED_WRITER_NAMES
    #: Roots that are *required* to exist; a missing root means the
    #: analyzer went blind (e.g. an entrypoint was renamed) and is
    #: reported instead of silently ignored.
    require_roots: bool = True
    extra_findings: list[Finding] = field(default_factory=list)


def _is_allowlisted(config: ForkSafetyConfig, function: FunctionInfo) -> bool:
    if config.init_worker_re.search(function.qualname):
        return True
    return function.name in config.sanctioned_writer_names


def _finding(rule: str, module: ModuleInfo, line: int, symbol: str,
             message: str) -> Finding:
    return Finding(
        path=str(module.path),
        line=line,
        rule=rule,
        message=message,
        hint=RULES[rule].hint,
        symbol=symbol,
    )


def _resolve_stdlib_call(module: ModuleInfo, node: ast.expr) -> str | None:
    """Canonical dotted name of a call target through import aliases.

    ``from datetime import datetime as dt; dt.now()`` resolves to
    ``datetime.datetime.now``.  Project-local names resolve through the
    call graph instead and return None here.
    """
    dotted = flatten_dotted(node)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    if head in module.module_aliases:
        base = module.module_aliases[head]
        return f"{base}.{rest}" if rest else base
    if head in module.symbol_aliases:
        base = module.symbol_aliases[head]
        return f"{base}.{rest}" if rest else base
    return dotted


class _EffectVisitor(ast.NodeVisitor):
    """Flag env/entropy/wall-clock effects inside one function body."""

    def __init__(self, module: ModuleInfo, function: FunctionInfo,
                 findings: list[Finding]):
        self.module = module
        self.function = function
        self.findings = findings

    def _report(self, rule: str, line: int, message: str) -> None:
        self.findings.append(_finding(
            rule, self.module, line, self.function.qualname,
            f"{message} (reachable from a fork-worker entrypoint via "
            f"{self.function.qualname})",
        ))

    # -- os.environ ----------------------------------------------------
    def _is_environ(self, node: ast.expr) -> bool:
        return _resolve_stdlib_call(self.module, node) == "os.environ"

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if (isinstance(target, ast.Subscript)
                    and self._is_environ(target.value)):
                self._report("fork-env-mutation", node.lineno,
                             "assigns into os.environ")
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            if (isinstance(target, ast.Subscript)
                    and self._is_environ(target.value)):
                self._report("fork-env-mutation", node.lineno,
                             "deletes from os.environ")
        self.generic_visit(node)

    # -- calls ---------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        resolved = _resolve_stdlib_call(self.module, node.func)
        if resolved is not None:
            self._check_call(node, resolved)
        func = node.func
        if (isinstance(func, ast.Attribute)
                and func.attr in _ENVIRON_METHODS
                and self._is_environ(func.value)):
            self._report("fork-env-mutation", node.lineno,
                         f"calls os.environ.{func.attr}(...)")
        self.generic_visit(node)

    def _check_call(self, node: ast.Call, resolved: str) -> None:
        prefix, _, name = resolved.rpartition(".")
        if resolved in ("os.putenv", "os.unsetenv"):
            self._report("fork-env-mutation", node.lineno,
                         f"calls {resolved}()")
        elif resolved in _WALLCLOCK_CALLS:
            self._report("fork-wallclock", node.lineno,
                         f"reads the wall clock via {resolved}()")
        elif resolved in _ENTROPY_CALLS:
            self._report("fork-unseeded-entropy", node.lineno,
                         f"draws entropy via {resolved}()")
        elif ((prefix == "random" and name in _RANDOM_FUNCS)
              or (prefix == "numpy.random"
                  and name in _NUMPY_RANDOM_FUNCS)):
            self._report("fork-unseeded-entropy", node.lineno,
                         f"uses the process-global RNG via {resolved}()")
        elif (prefix in ("random", "numpy.random")
              and name in _SEEDABLE_CONSTRUCTORS and not node.args):
            seeded = any(kw.arg == "seed" for kw in node.keywords)
            if not seeded:
                self._report("fork-unseeded-entropy", node.lineno,
                             f"constructs {resolved}() without a seed")


def _module_resource_findings(
    graph: ProjectGraph, modules: set[str]
) -> list[Finding]:
    """fork-module-resource over every module the closure executes in."""
    findings: list[Finding] = []
    for name in sorted(modules):
        module = graph.modules.get(name)
        if module is None:
            continue
        for binding in module.bindings.values():
            resolved = binding.value_call
            if not resolved:
                continue
            head = resolved.partition(".")[0]
            if head in module.module_aliases:
                base = module.module_aliases[head]
                rest = resolved.partition(".")[2]
                resolved = f"{base}.{rest}" if rest else base
            elif head in module.symbol_aliases and "." not in resolved:
                resolved = module.symbol_aliases[head]
            if resolved in _RESOURCE_CALLS:
                findings.append(_finding(
                    "fork-module-resource", module, binding.lineno,
                    f"{name}.{binding.name}",
                    f"module-scope resource {binding.name} = "
                    f"{resolved}(...) is inherited by forked workers in "
                    "an undefined state",
                ))
    return findings


def fork_safety_findings(
    graph: ProjectGraph, config: ForkSafetyConfig | None = None
) -> list[Finding]:
    """All fork-safety findings for the project graph."""
    config = config or ForkSafetyConfig()
    findings: list[Finding] = list(config.extra_findings)

    roots = [r for r in config.roots if r in graph.functions]
    if config.require_roots:
        for missing in sorted(set(config.roots) - set(roots)):
            module_name = missing.rpartition(".")[0]
            module = graph.modules.get(module_name)
            path = str(module.path) if module else missing
            findings.append(Finding(
                path=path,
                line=1,
                rule="fork-global-write",
                message=(
                    f"worker entrypoint {missing} no longer exists; update "
                    "WORKER_ENTRYPOINTS in repro/lint/forksafe.py or the "
                    "fork-safety pass is blind to its closure"
                ),
                hint=RULES["fork-global-write"].hint,
                symbol=missing,
            ))

    closure = graph.transitive_callees(roots)
    for qualname in sorted(closure):
        function = graph.functions[qualname]
        module = graph.modules[function.module]
        allowlisted = _is_allowlisted(config, function)
        if not allowlisted:
            for name, line in sorted(global_writes(function.node).items()):
                findings.append(_finding(
                    "fork-global-write", module, line, qualname,
                    f"rebinds module global {name} inside the fork-worker "
                    f"closure (via {qualname})",
                ))
            for name, line in sorted(
                    container_mutations(module, function.node).items()):
                findings.append(_finding(
                    "fork-global-write", module, line, qualname,
                    f"mutates module-level container {name} in place "
                    f"inside the fork-worker closure (via {qualname})",
                ))
        _EffectVisitor(module, function, findings).visit(function.node)

    findings.extend(_module_resource_findings(
        graph, {graph.functions[q].module for q in closure}
    ))
    return sorted(findings)
