"""Layer 1: AST-level determinism and hygiene checks.

The checker walks one module's AST and reports :class:`~repro.lint.findings.Finding`
objects for the rules in :data:`repro.lint.findings.RULES`.  The rules are
tuned to a deterministic-simulation codebase: anything that can make two
runs of the same experiment disagree (global RNG draws, set-ordering
leaks, float equality) is treated as a defect even where general-purpose
linters stay quiet.

Two rules guard module state: ``global-mutable-state`` (a write to an
attribute of an imported name, ``other.LIMIT = 5``) and
``capture-state-leak`` (a ``global`` rebind of an ``install``-managed
capture slot outside the sanctioned install/uninstall functions).

The checker is purely syntactic — it resolves ``import`` aliases within
the module but does no cross-module inference, so it can run on any
source string without importing it.
"""

from __future__ import annotations

import ast
import re

from repro.lint.findings import RULES, Finding

#: ``random`` module functions that draw from the global generator.
_RANDOM_FUNCS = frozenset(
    {
        "betavariate", "choice", "choices", "expovariate", "gammavariate",
        "gauss", "getrandbits", "lognormvariate", "normalvariate",
        "paretovariate", "randbytes", "randint", "random", "randrange",
        "sample", "shuffle", "triangular", "uniform", "vonmisesvariate",
        "weibullvariate",
    }
)

#: ``numpy.random`` module-level functions backed by the legacy global
#: ``RandomState`` (seed-order dependent even after ``numpy.random.seed``).
_NUMPY_RANDOM_FUNCS = frozenset(
    {
        "beta", "binomial", "bytes", "chisquare", "choice", "exponential",
        "gamma", "geometric", "gumbel", "laplace", "logistic", "lognormal",
        "normal", "permutation", "poisson", "rand", "randint", "randn",
        "random", "random_integers", "random_sample", "ranf", "sample",
        "shuffle", "standard_cauchy", "standard_exponential",
        "standard_gamma", "standard_normal", "standard_t", "uniform",
        "vonmises", "wald", "weibull", "zipf",
    }
)

#: Constructors that are fine seeded but nondeterministic with no
#: arguments (they fall back to OS entropy).
_SEEDABLE_CONSTRUCTORS = frozenset({"Random", "default_rng", "SystemRandom"})

_MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray", "defaultdict"})

#: Builtins whose single-argument call materialises iteration order.
_ORDER_SENSITIVE_CALLS = frozenset({"list", "tuple", "enumerate", "iter"})

#: Shape a static span name must have: dotted lowercase-ish segments.
#: Trend series and profiler paths key on these names verbatim, so they
#: must be grep-able string constants, not runtime-assembled values.
_SPAN_NAME_RE = re.compile(r"^[A-Za-z0-9_-]+(\.[A-Za-z0-9_-]+)*$")

#: Functions allowed to rebind a capture-state global in its own module:
#: the ``install``/``uninstall`` pair that defines the pattern and the
#: ``capturing``/``recording`` context managers built directly on it.
_CAPTURE_WRITERS = frozenset({
    "install", "uninstall", "capturing", "recording",
})


def _is_set_expr(node: ast.expr) -> bool:
    """Whether ``node`` syntactically evaluates to a set/frozenset."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        # set algebra: {a} | {b}, set(x) - set(y), ...
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


def _is_floatish(node: ast.expr) -> bool:
    """Conservative "this expression is a float" test.

    Only shapes that are certainly floats are matched: float literals,
    ``float(...)`` casts, true division, and arithmetic over either.
    Plain names are never matched — the checker has no type inference,
    and flagging every ``a == b`` would drown the signal.
    """
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.UnaryOp):
        return _is_floatish(node.operand)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id == "float"
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Div):
            return True
        return _is_floatish(node.left) or _is_floatish(node.right)
    return False


class Checker(ast.NodeVisitor):
    """Single-module rule engine; collects findings in :attr:`findings`."""

    def __init__(self, path: str):
        self.path = path
        self.findings: list[Finding] = []
        #: Names bound to the ``random`` module (``import random [as r]``).
        self._random_mods: set[str] = set()
        #: Names bound to ``numpy`` itself.
        self._numpy_mods: set[str] = set()
        #: Names bound to the ``numpy.random`` submodule.
        self._numpy_random_mods: set[str] = set()
        #: Bare names that are global-RNG functions (``from random import
        #: choice``), mapped to the module they came from.
        self._direct_rng_funcs: dict[str, str] = {}
        #: Names bound to the ``repro.obs`` package (``from repro import
        #: obs``), whose ``span`` attribute starts a recorded span.
        self._obs_mods: set[str] = set()
        #: Bare names bound to the span facade itself (``from repro.obs
        #: import span`` / ``from repro.obs.recorder import span``).
        self._span_funcs: set[str] = set()
        #: Names bound to the ``repro.explain.provenance`` module (or
        #: ``from repro.explain import provenance``), whose ``emit``
        #: attribute records a breadcrumb event.
        self._explain_mods: set[str] = set()
        #: Bare names bound to the explain emit facade (``from
        #: repro.explain import emit`` / ``...provenance import emit``).
        self._emit_funcs: set[str] = set()
        #: Every name the file binds by ``import`` or ``from … import``,
        #: anywhere in it (filled before the visit).
        self._imported: set[str] = set()

    # ------------------------------------------------------------------
    def _report(self, rule: str, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                path=self.path,
                line=getattr(node, "lineno", 1),
                rule=rule,
                message=message,
                hint=RULES[rule].hint,
            )
        )

    # ------------------------------------------------------------------
    # Import tracking
    # ------------------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name == "random":
                self._random_mods.add(bound)
            elif alias.name == "numpy":
                self._numpy_mods.add(bound)
            elif alias.name == "numpy.random":
                if alias.asname:
                    self._numpy_random_mods.add(alias.asname)
                else:
                    self._numpy_mods.add("numpy")
            elif alias.name == "repro.obs" and alias.asname:
                self._obs_mods.add(alias.asname)
            elif alias.name == "repro.explain.provenance" and alias.asname:
                self._explain_mods.add(alias.asname)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            for alias in node.names:
                if alias.name in _RANDOM_FUNCS:
                    self._direct_rng_funcs[alias.asname or alias.name] = "random"
        elif node.module == "numpy":
            for alias in node.names:
                if alias.name == "random":
                    self._numpy_random_mods.add(alias.asname or alias.name)
        elif node.module == "numpy.random":
            for alias in node.names:
                if alias.name in _NUMPY_RANDOM_FUNCS:
                    self._direct_rng_funcs[alias.asname or alias.name] = (
                        "numpy.random"
                    )
        elif node.module == "repro":
            for alias in node.names:
                if alias.name == "obs":
                    self._obs_mods.add(alias.asname or alias.name)
        elif node.module in ("repro.obs", "repro.obs.recorder"):
            for alias in node.names:
                if alias.name == "span":
                    self._span_funcs.add(alias.asname or alias.name)
        if node.module == "repro.explain":
            for alias in node.names:
                if alias.name == "provenance":
                    self._explain_mods.add(alias.asname or alias.name)
                elif alias.name == "emit":
                    self._emit_funcs.add(alias.asname or alias.name)
        elif node.module == "repro.explain.provenance":
            for alias in node.names:
                if alias.name == "emit":
                    self._emit_funcs.add(alias.asname or alias.name)
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # unseeded-random
    # ------------------------------------------------------------------
    def _global_rng_call(self, func: ast.expr) -> str | None:
        """The dotted name of a global-RNG call target, or None."""
        if isinstance(func, ast.Name):
            origin = self._direct_rng_funcs.get(func.id)
            if origin is not None:
                return f"{origin}.{func.id}"
            return None
        if not isinstance(func, ast.Attribute):
            return None
        value = func.value
        if isinstance(value, ast.Name):
            if value.id in self._random_mods and func.attr in _RANDOM_FUNCS:
                return f"random.{func.attr}"
            if (
                value.id in self._numpy_random_mods
                and func.attr in _NUMPY_RANDOM_FUNCS
            ):
                return f"numpy.random.{func.attr}"
        if (
            isinstance(value, ast.Attribute)
            and value.attr == "random"
            and isinstance(value.value, ast.Name)
            and value.value.id in self._numpy_mods
            and func.attr in _NUMPY_RANDOM_FUNCS
        ):
            return f"numpy.random.{func.attr}"
        return None

    def _unseeded_constructor(self, node: ast.Call) -> str | None:
        """``random.Random()`` / ``default_rng()`` with no seed argument."""
        if node.args or node.keywords:
            return None
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _SEEDABLE_CONSTRUCTORS
            and isinstance(func.value, ast.Name)
            and (
                func.value.id in self._random_mods
                or func.value.id in self._numpy_random_mods
            )
        ):
            return func.attr
        return None

    def visit_Call(self, node: ast.Call) -> None:
        target = self._global_rng_call(node.func)
        if target is not None:
            self._report(
                "unseeded-random", node,
                f"{target}() draws from the process-global RNG",
            )
        else:
            ctor = self._unseeded_constructor(node)
            if ctor is not None:
                self._report(
                    "unseeded-random", node,
                    f"{ctor}() without a seed is entropy-seeded",
                )
        self._check_order_sensitive_call(node)
        self._check_span_name(node)
        self._check_event_name(node)
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # obs-span-literal
    # ------------------------------------------------------------------
    def _is_span_call(self, func: ast.expr) -> bool:
        """Whether ``func`` is the obs span facade (``obs.span`` / ``span``)."""
        if isinstance(func, ast.Name):
            return func.id in self._span_funcs
        if isinstance(func, ast.Attribute) and func.attr == "span":
            value = func.value
            if isinstance(value, ast.Name):
                return value.id in self._obs_mods
            # import repro.obs  ->  repro.obs.span(...)
            return (
                isinstance(value, ast.Attribute)
                and value.attr == "obs"
                and isinstance(value.value, ast.Name)
                and value.value.id == "repro"
            )
        return False

    def _check_span_name(self, node: ast.Call) -> None:
        if not self._is_span_call(node.func):
            return
        if not node.args:
            return  # a missing name fails at runtime, not lint time
        name = node.args[0]
        if not isinstance(name, ast.Constant) or not isinstance(
            name.value, str
        ):
            self._report(
                "obs-span-literal", name,
                "span name is computed at runtime, not a string literal",
            )
        elif not _SPAN_NAME_RE.match(name.value):
            self._report(
                "obs-span-literal", name,
                f"span name {name.value!r} is not a dotted identifier",
            )

    # ------------------------------------------------------------------
    # explain-event-literal
    # ------------------------------------------------------------------
    def _is_emit_call(self, func: ast.expr) -> bool:
        """Whether ``func`` is the explain breadcrumb facade.

        Matches only names bound to :mod:`repro.explain.provenance` (or
        a bare ``emit`` imported from it) — never arbitrary ``.emit``
        attributes, which other subsystems (e.g. obs event sinks) use
        with non-name payloads.
        """
        if isinstance(func, ast.Name):
            return func.id in self._emit_funcs
        if isinstance(func, ast.Attribute) and func.attr == "emit":
            value = func.value
            if isinstance(value, ast.Name):
                return value.id in self._explain_mods
        return False

    def _check_event_name(self, node: ast.Call) -> None:
        if not self._is_emit_call(node.func):
            return
        if not node.args:
            return  # a missing name fails at runtime, not lint time
        name = node.args[0]
        if not isinstance(name, ast.Constant) or not isinstance(
            name.value, str
        ):
            self._report(
                "explain-event-literal", name,
                "event name is computed at runtime, not a string literal",
            )
        elif not _SPAN_NAME_RE.match(name.value):
            self._report(
                "explain-event-literal", name,
                f"event name {name.value!r} is not a dotted identifier",
            )

    # ------------------------------------------------------------------
    # float-equality
    # ------------------------------------------------------------------
    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if _is_floatish(left) or _is_floatish(right):
                symbol = "==" if isinstance(op, ast.Eq) else "!="
                self._report(
                    "float-equality", node,
                    f"exact float {symbol} comparison",
                )
                break
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # mutable-default
    # ------------------------------------------------------------------
    def _check_defaults(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda
    ) -> None:
        defaults = [*node.args.defaults, *node.args.kw_defaults]
        for default in defaults:
            if default is None:
                continue
            mutable = isinstance(
                default, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                          ast.DictComp, ast.SetComp)
            ) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in _MUTABLE_CALLS
            )
            if mutable:
                self._report(
                    "mutable-default", default,
                    "mutable default argument is shared across calls",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # set-iteration
    # ------------------------------------------------------------------
    def _report_set_iteration(self, node: ast.expr) -> None:
        self._report(
            "set-iteration", node,
            "iteration order of a set is not deterministic across runs",
        )

    def visit_For(self, node: ast.For) -> None:
        if _is_set_expr(node.iter):
            self._report_set_iteration(node.iter)
        self.generic_visit(node)

    def _visit_comprehension(
        self,
        node: ast.ListComp | ast.SetComp | ast.DictComp | ast.GeneratorExp,
    ) -> None:
        for gen in node.generators:
            if _is_set_expr(gen.iter):
                self._report_set_iteration(gen.iter)
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_comprehension(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._visit_comprehension(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._visit_comprehension(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._visit_comprehension(node)

    def _check_order_sensitive_call(self, node: ast.Call) -> None:
        """``list({...})`` / ``",".join(set(...))`` materialise set order."""
        if not node.args or not _is_set_expr(node.args[0]):
            return
        func = node.func
        if isinstance(func, ast.Name) and func.id in _ORDER_SENSITIVE_CALLS:
            self._report_set_iteration(node.args[0])
        elif isinstance(func, ast.Attribute) and func.attr == "join":
            self._report_set_iteration(node.args[0])

    # ------------------------------------------------------------------
    # bare-except
    # ------------------------------------------------------------------
    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._report("bare-except", node, "bare except clause")
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # global-mutable-state
    # ------------------------------------------------------------------
    def _check_foreign_writes(self, node: ast.stmt,
                              targets: list[ast.expr]) -> None:
        """``other.NAME = ...`` where ``other`` is an imported name."""
        for target in targets:
            if isinstance(target, (ast.Tuple, ast.List)):
                self._check_foreign_writes(node, list(target.elts))
                continue
            if not isinstance(target, ast.Attribute):
                continue
            root = target.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in self._imported:
                self._report(
                    "global-mutable-state", node,
                    f"writes {ast.unparse(target)}, state of imported "
                    f"name {root.id!r}",
                )

    def visit_Assign(self, node: ast.Assign) -> None:
        self._check_foreign_writes(node, list(node.targets))
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_foreign_writes(node, [node.target])
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_foreign_writes(node, [node.target])
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        self._check_foreign_writes(node, list(node.targets))
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # capture-state-leak (module-level pass)
    # ------------------------------------------------------------------
    def _check_capture_state(self, tree: ast.Module) -> None:
        """Rebinds of ``install``'s globals outside the sanctioned set.

        Applies only to a module that defines both ``install`` and
        ``uninstall`` at top level: the single-None-check capture slot
        of :mod:`repro.obs.recorder` and :mod:`repro.explain.provenance`.
        """
        top = {stmt.name: stmt for stmt in tree.body
               if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))}
        if "install" not in top or "uninstall" not in top:
            return
        slots = {name for name, _ in _global_rebinds(top["install"])}
        for node in ast.walk(tree):
            if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    or node.name in _CAPTURE_WRITERS):
                continue
            for name, stmt in _global_rebinds(node):
                if name in slots:
                    self._report(
                        "capture-state-leak", stmt,
                        f"{node.name}() rebinds capture-state global "
                        f"{name}, which only install/uninstall/"
                        "capturing/recording may write",
                    )

    # ------------------------------------------------------------------
    # all-drift (module-level post pass)
    # ------------------------------------------------------------------
    def check_module(self, tree: ast.Module) -> None:
        """Run the whole-module passes, then the node visitors."""
        self._imported = _imported_names(tree)
        self._check_all_drift(tree)
        self._check_capture_state(tree)
        self.visit(tree)

    def _check_all_drift(self, tree: ast.Module) -> None:
        exported = self._find_all_assignment(tree)
        if exported is None:
            return
        defined = _module_level_names(tree)
        for elt in exported:
            if not isinstance(elt, ast.Constant) or not isinstance(
                elt.value, str
            ):
                continue
            if elt.value not in defined:
                self._report(
                    "all-drift", elt,
                    f"__all__ names {elt.value!r} which the module "
                    "does not define",
                )

    @staticmethod
    def _find_all_assignment(tree: ast.Module) -> list[ast.expr] | None:
        for stmt in tree.body:
            targets: list[ast.expr]
            if isinstance(stmt, ast.Assign):
                targets = list(stmt.targets)
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets = [stmt.target]
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    value = stmt.value
                    if isinstance(value, (ast.List, ast.Tuple)):
                        return list(value.elts)
        return None


def _module_level_names(tree: ast.Module) -> set[str]:
    """Names a module defines at top level (following into try/if blocks)."""
    names: set[str] = set()

    def collect(body: list[ast.stmt]) -> None:
        for stmt in body:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                names.add(stmt.name)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    _collect_target(target)
            elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                _collect_target(stmt.target)
            elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for alias in stmt.names:
                    if alias.name == "*":
                        continue
                    names.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(stmt, ast.If):
                collect(stmt.body)
                collect(stmt.orelse)
            elif isinstance(stmt, ast.Try):
                collect(stmt.body)
                collect(stmt.orelse)
                collect(stmt.finalbody)
                for handler in stmt.handlers:
                    collect(handler.body)

    def _collect_target(target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                _collect_target(elt)
        elif isinstance(target, ast.Starred):
            _collect_target(target.value)

    collect(tree.body)
    return names


def _imported_names(tree: ast.Module) -> set[str]:
    """Names bound by ``import`` / ``from … import`` anywhere in a file."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    names.add(alias.asname or alias.name.split(".")[0])
    return names


def _global_rebinds(
    function: ast.FunctionDef | ast.AsyncFunctionDef,
) -> list[tuple[str, ast.stmt]]:
    """Every write of a ``global`` name in the function's own scope, as
    ``(name, statement)``; nested functions and classes are skipped."""
    nodes: list[ast.AST] = []
    stack: list[ast.AST] = list(function.body)
    while stack:
        node = stack.pop()
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef, ast.Lambda)):
            nodes.append(node)
            stack.extend(ast.iter_child_nodes(node))
    declared = {name for node in nodes if isinstance(node, ast.Global)
                for name in node.names}
    writes: list[tuple[str, ast.stmt]] = []
    for node in nodes:
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        writes.extend((t.id, node) for t in targets
                      if isinstance(t, ast.Name) and t.id in declared)
    return writes


def check_tree(tree: ast.Module, path: str) -> list[Finding]:
    """All Layer-1 findings for one parsed module."""
    checker = Checker(path)
    checker.check_module(tree)
    return checker.findings
