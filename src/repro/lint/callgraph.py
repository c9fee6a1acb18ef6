"""Layer 3 foundation: a whole-program module/call graph over one package.

:func:`build_project_graph` parses every module of a package tree (no
imports are executed — everything is :mod:`ast`) and produces a
:class:`ProjectGraph`:

- a **symbol table per module**: which local names are bound to which
  modules or symbols (``import repro.obs`` / ``from repro.par.pool
  import worker_count as wc``), which functions, classes, and
  module-level bindings the module defines;
- **conservative call edges** between project functions.  Direct calls
  resolve through the symbol table (following ``__init__`` re-export
  chains); method calls on values of unknown type resolve *by name* to
  every project function with that name; a project function passed as a
  call argument (``map(fn, ...)`` / ``initializer=fn``) is assumed
  callable from the callee.

The graph deliberately over-approximates: the fork-safety and cache-key
passes built on it (:mod:`repro.lint.forksafe`,
:mod:`repro.lint.cachekeys`) must never miss a reachable effect, and a
false edge at worst widens an allowlist.  Two documented holes keep the
closure tractable:

- attribute *reads* (``@property`` bodies) produce no call edge;
- generic container-protocol names (``get``, ``items``, ``append``, …
  — see :data:`GENERIC_METHOD_NAMES`) are assumed to be builtin dict /
  list / str operations and produce no by-name edge.  Domain code must
  not hide result-relevant logic behind those names.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

__all__ = [
    "FunctionInfo",
    "GENERIC_METHOD_NAMES",
    "ModuleBinding",
    "ModuleInfo",
    "ProjectGraph",
    "build_project_graph",
    "flatten_dotted",
]

#: Method names assumed to be builtin container/str protocol operations;
#: attribute calls with these names never produce a conservative by-name
#: edge (they would connect every ``dict.get`` to every project ``get``).
GENERIC_METHOD_NAMES = frozenset({
    "add", "append", "clear", "close", "copy", "count", "decode",
    "discard", "encode", "endswith", "extend", "flush", "format", "get",
    "index", "insert", "items", "join", "keys", "lower", "pop",
    "popitem", "read", "remove", "reverse", "setdefault", "sort",
    "split", "startswith", "strip", "update", "upper", "values",
    "write",
})

#: Alias-resolution depth bound when following ``__init__`` re-exports.
_MAX_ALIAS_HOPS = 8


def flatten_dotted(node: ast.expr) -> str | None:
    """``a.b.c`` as a dotted string for Name/Attribute chains, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


@dataclass
class FunctionInfo:
    """One function or method definition in the project."""

    qualname: str
    module: str
    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    lineno: int
    #: Qualname of the class the function is defined in, or "".
    owner_class: str = ""


@dataclass
class ModuleBinding:
    """One module-level binding and how the project treats it."""

    name: str
    module: str
    lineno: int
    #: Whether the bound value is a mutable container/display, so
    #: in-place mutation (``X[k] = v`` / ``X.append``) is possible.
    mutable_value: bool = False
    #: Dotted call target the binding's value came from, or "".
    value_call: str = ""
    #: Functions (qualnames) that rebind it via ``global`` or mutate it
    #: in place; cross-module writers are prefixed with ``*``.
    mutators: list[str] = field(default_factory=list)

    @property
    def mutated(self) -> bool:
        return bool(self.mutators)


@dataclass
class ModuleInfo:
    """Parsed form and symbol table of one project module."""

    name: str
    path: Path
    tree: ast.Module | None
    source: str
    #: Local name -> dotted module it is bound to (``import x.y as z``,
    #: ``from pkg import submodule``).  Includes stdlib modules.
    module_aliases: dict[str, str] = field(default_factory=dict)
    #: Local name -> dotted symbol it is bound to (``from m import f``).
    symbol_aliases: dict[str, str] = field(default_factory=dict)
    #: Module-level function/class simple names -> qualname.
    local_defs: dict[str, str] = field(default_factory=dict)
    #: Qualnames of classes defined here.
    classes: set[str] = field(default_factory=set)
    #: Class qualname -> unresolved dotted base-class expressions.
    class_bases: dict[str, list[str]] = field(default_factory=dict)
    #: Module-level data bindings by name.
    bindings: dict[str, ModuleBinding] = field(default_factory=dict)
    #: Syntax-error message when ``tree`` is None.
    parse_error: str = ""


class ProjectGraph:
    """Modules, functions, and conservative call edges of one package."""

    def __init__(self, root: Path, package: str):
        self.root = root
        self.package = package
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        #: Simple function name -> qualnames (conservative dispatch).
        self.by_name: dict[str, list[str]] = {}
        #: Caller qualname -> callee qualnames.
        self.edges: dict[str, set[str]] = {}
        #: Class qualname -> classes in the same inheritance component
        #: (itself, ancestors, descendants, and their relatives) —
        #: the conservative dispatch set for ``self.method(...)``.
        self.class_relatives: dict[str, frozenset[str]] = {}

    # ------------------------------------------------------------------
    def module_of(self, qualname: str) -> str:
        """The defining module of a function qualname."""
        info = self.functions.get(qualname)
        return info.module if info is not None else ""

    def transitive_callees(self, roots: list[str]) -> set[str]:
        """Every function reachable from ``roots`` (roots included).

        Unknown root qualnames are ignored — callers that need to detect
        them (the passes do) check ``qualname in graph.functions`` first.
        """
        seen: set[str] = set()
        stack = [r for r in roots if r in self.functions]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self.edges.get(current, ()) - seen)
        return seen

    def reachable_modules(self, roots: list[str]) -> set[str]:
        """Modules containing any function reachable from ``roots``."""
        return {
            self.functions[q].module
            for q in self.transitive_callees(roots)
        }

    # ------------------------------------------------------------------
    def resolve_symbol(self, module_name: str, attr_path: str,
                       _hops: int = 0) -> str | None:
        """Resolve ``module_name.attr_path`` to a function/class qualname.

        Follows ``from x import y`` re-export chains (``repro.obs.span``
        -> ``repro.obs.recorder.span``) up to a fixed depth.
        """
        if _hops > _MAX_ALIAS_HOPS:
            return None
        module = self.modules.get(module_name)
        if module is None:
            return None
        head, _, rest = attr_path.partition(".")
        if head in module.local_defs:
            qual = module.local_defs[head]
            if rest and qual in self.classes():
                # Class attribute access (a method): Class.method.
                return f"{qual}.{rest}"
            return qual if not rest else None
        if head in module.symbol_aliases:
            target = module.symbol_aliases[head]
            target_mod, _, target_attr = target.rpartition(".")
            suffix = target_attr + ("." + rest if rest else "")
            return self.resolve_symbol(target_mod, suffix, _hops + 1)
        if head in module.module_aliases:
            submodule = module.module_aliases[head]
            if rest:
                return self.resolve_symbol(submodule, rest, _hops + 1)
        # ``from pkg import submodule`` often appears as a module alias
        # already; a plain submodule of a package is also addressable.
        if not rest and f"{module_name}.{head}" in self.modules:
            return None
        return None

    def classes(self) -> set[str]:
        all_classes: set[str] = set()
        for module in self.modules.values():
            all_classes |= module.classes
        return all_classes


# ----------------------------------------------------------------------
# Module parsing
# ----------------------------------------------------------------------

_MUTABLE_DISPLAY = (ast.List, ast.Dict, ast.Set, ast.ListComp,
                    ast.DictComp, ast.SetComp)
_MUTABLE_CALLS = frozenset({
    "list", "dict", "set", "bytearray", "defaultdict", "deque",
    "Counter", "OrderedDict", "WeakKeyDictionary", "WeakValueDictionary",
})


def _iter_module_statements(body: list[ast.stmt]) -> Iterator[ast.stmt]:
    """Top-level statements, following into ``if``/``try`` blocks."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, ast.If):
            yield from _iter_module_statements(stmt.body)
            yield from _iter_module_statements(stmt.orelse)
        elif isinstance(stmt, ast.Try):
            yield from _iter_module_statements(stmt.body)
            yield from _iter_module_statements(stmt.orelse)
            yield from _iter_module_statements(stmt.finalbody)
            for handler in stmt.handlers:
                yield from _iter_module_statements(handler.body)


def _record_binding(module: ModuleInfo, target: ast.expr,
                    value: ast.expr | None) -> None:
    if not isinstance(target, ast.Name):
        return
    mutable = isinstance(value, _MUTABLE_DISPLAY)
    value_call = ""
    if isinstance(value, ast.Call):
        dotted = flatten_dotted(value.func)
        if dotted is not None:
            value_call = dotted
            simple = dotted.rpartition(".")[2]
            if simple in _MUTABLE_CALLS:
                mutable = True
    module.bindings[target.id] = ModuleBinding(
        name=target.id,
        module=module.name,
        lineno=target.lineno,
        mutable_value=mutable,
        value_call=value_call,
    )


def _parse_module(name: str, path: Path) -> ModuleInfo:
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return ModuleInfo(name=name, path=path, tree=None, source=source,
                          parse_error=f"syntax error: {exc.msg}")
    module = ModuleInfo(name=name, path=path, tree=tree, source=source)
    for stmt in _iter_module_statements(tree.body):
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                bound = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                module.module_aliases[bound] = target
        elif isinstance(stmt, ast.ImportFrom):
            if stmt.level or stmt.module is None:
                continue  # relative imports are not used in this tree
            for alias in stmt.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                module.symbol_aliases[bound] = f"{stmt.module}.{alias.name}"
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            module.local_defs[stmt.name] = f"{name}.{stmt.name}"
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                _record_binding(module, target, stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            _record_binding(module, stmt.target, stmt.value)
    return module


def _register_functions(graph: ProjectGraph, module: ModuleInfo) -> None:
    if module.tree is None:
        return

    def register(node: ast.AST, prefix: str, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}.{child.name}"
                graph.functions[qualname] = FunctionInfo(
                    qualname=qualname,
                    module=module.name,
                    name=child.name,
                    node=child,
                    lineno=child.lineno,
                    owner_class=owner,
                )
                graph.by_name.setdefault(child.name, []).append(qualname)
                register(child, qualname, owner)
            elif isinstance(child, ast.ClassDef):
                class_qual = f"{prefix}.{child.name}"
                module.classes.add(class_qual)
                module.class_bases[class_qual] = [
                    dotted for dotted in map(flatten_dotted, child.bases)
                    if dotted is not None
                ]
                register(child, class_qual, class_qual)

    register(module.tree, module.name, "")


# ----------------------------------------------------------------------
# Call-edge extraction
# ----------------------------------------------------------------------

class _CallCollector(ast.NodeVisitor):
    """Collect callee qualnames for one function body.

    Nested function definitions are separate graph nodes; the collector
    stops at them (they get their own edges) but records an edge to each
    — a nested def is conservatively assumed to be called.
    """

    def __init__(self, graph: ProjectGraph, module: ModuleInfo,
                 function: FunctionInfo):
        self.graph = graph
        self.module = module
        self.function = function
        self.callees: set[str] = set()

    # -- resolution ----------------------------------------------------
    def _resolve_dotted(self, dotted: str) -> str | None:
        head, _, rest = dotted.partition(".")
        module = self.module
        # Nested function in the enclosing scope.
        if not rest:
            sibling = f"{self.function.qualname}.{head}"
            if sibling in self.graph.functions:
                return sibling
        if head in module.local_defs:
            qual = module.local_defs[head]
            return f"{qual}.{rest}" if rest else qual
        if head in module.symbol_aliases:
            target = module.symbol_aliases[head]
            target_mod, _, target_attr = target.rpartition(".")
            suffix = target_attr + ("." + rest if rest else "")
            resolved = self.graph.resolve_symbol(target_mod, suffix)
            if resolved is not None:
                return resolved
            # ``from pkg import module`` — the symbol is itself a module.
            if target in self.graph.modules and rest:
                return self.graph.resolve_symbol(target, rest)
            return None
        if head in module.module_aliases:
            target_mod = module.module_aliases[head]
            # ``import repro.obs`` binds ``repro``; walk the dotted
            # remainder down to the longest known module prefix.
            full = f"{target_mod}.{rest}" if rest else target_mod
            mod_name, _, attr = full.rpartition(".")
            while mod_name and mod_name not in self.graph.modules:
                next_mod, _, next_attr = mod_name.rpartition(".")
                mod_name, attr = next_mod, f"{next_attr}.{attr}"
            if mod_name and attr:
                return self.graph.resolve_symbol(mod_name, attr)
        return None

    def _add_target(self, expr: ast.expr) -> None:
        dotted = flatten_dotted(expr)
        if dotted is not None:
            resolved = self._resolve_dotted(dotted)
            if resolved is not None:
                self._note(resolved)
                return
        if isinstance(expr, ast.Attribute):
            name = expr.attr
            # ``self.method(...)``: dispatch within the inheritance
            # component of the enclosing class when it defines the
            # method somewhere — far tighter than global by-name.
            if (isinstance(expr.value, ast.Name)
                    and expr.value.id in ("self", "cls")
                    and self.function.owner_class):
                owner = self.function.owner_class
                relatives = self.graph.class_relatives.get(
                    owner, frozenset({owner}))
                candidates = [
                    f"{cls}.{name}" for cls in sorted(relatives)
                    if f"{cls}.{name}" in self.graph.functions
                ]
                if candidates:
                    for qualname in candidates:
                        self._note(qualname)
                    return
            # Method call on a value of unknown type: conservative
            # by-name dispatch to every project function with that name.
            if (name not in GENERIC_METHOD_NAMES
                    and not name.startswith("__")):
                for qualname in self.graph.by_name.get(name, ()):
                    self._note(qualname)

    def _note(self, qualname: str) -> None:
        info = self.graph.functions.get(qualname)
        if info is not None:
            self.callees.add(qualname)
            return
        # Calling a class constructs it: edge to __init__ (and
        # __post_init__ for dataclasses) when defined.
        if qualname in self.graph.classes():
            for hook in ("__init__", "__post_init__", "__new__", "__call__"):
                hook_qual = f"{qualname}.{hook}"
                if hook_qual in self.graph.functions:
                    self.callees.add(hook_qual)

    # -- visitors ------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        self._add_target(node.func)
        # Function references passed as arguments (callbacks,
        # ``initializer=``): assume the callee may invoke them.
        for arg in [*node.args, *(kw.value for kw in node.keywords)]:
            dotted = flatten_dotted(arg)
            if dotted is not None:
                resolved = self._resolve_dotted(dotted)
                if resolved is not None:
                    self._note(resolved)
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._stop_at_nested(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._stop_at_nested(node)

    def _stop_at_nested(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        if node is self.function.node:
            self.generic_visit(node)
        else:
            self._note(f"{self.function.qualname}.{node.name}")


def _link_class_hierarchy(graph: ProjectGraph) -> None:
    """Group classes into inheritance components for self-dispatch.

    Bases are resolved through module symbol tables; unresolvable bases
    (stdlib/typing) are ignored.  Components are computed over the
    *undirected* base relation: ``self.method(...)`` inside a base class
    may dispatch to any override anywhere in the connected hierarchy, so
    the whole component is the conservative candidate set.
    """
    links: dict[str, set[str]] = {}
    for module in graph.modules.values():
        for class_qual, bases in module.class_bases.items():
            links.setdefault(class_qual, set())
            for dotted in bases:
                head, _, rest = dotted.partition(".")
                base_qual: str | None = None
                if head in module.local_defs and not rest:
                    base_qual = module.local_defs[head]
                elif head in module.symbol_aliases and not rest:
                    candidate = module.symbol_aliases[head]
                    target_mod, _, attr = candidate.rpartition(".")
                    target = graph.modules.get(target_mod)
                    if target is not None and attr in target.local_defs:
                        base_qual = target.local_defs[attr]
                elif head in module.module_aliases and rest:
                    target = graph.modules.get(module.module_aliases[head])
                    if target is not None and rest in target.local_defs:
                        base_qual = target.local_defs[rest]
                if base_qual is not None and base_qual in graph.classes():
                    links[class_qual].add(base_qual)
                    links.setdefault(base_qual, set()).add(class_qual)
    # Connected components via repeated expansion.
    assigned: dict[str, frozenset[str]] = {}
    for start in links:
        if start in assigned:
            continue
        component: set[str] = set()
        stack = [start]
        while stack:
            current = stack.pop()
            if current in component:
                continue
            component.add(current)
            stack.extend(links.get(current, ()))
        frozen = frozenset(component)
        for member in component:
            assigned[member] = frozen
    graph.class_relatives = assigned


def _extract_edges(graph: ProjectGraph) -> None:
    for function in graph.functions.values():
        module = graph.modules[function.module]
        collector = _CallCollector(graph, module, function)
        collector.visit(function.node)
        collector.callees.discard(function.qualname)
        graph.edges[function.qualname] = collector.callees


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def build_project_graph(root: "Path | str", package: str) -> ProjectGraph:
    """Parse every ``.py`` file under ``root`` as package ``package``.

    ``root`` is the directory of the package itself (e.g. ``src/repro``);
    dotted module names are derived from paths relative to it.  Files
    that fail to parse are kept (with :attr:`ModuleInfo.parse_error`) so
    the driver can report them instead of silently shrinking the graph.
    """
    root = Path(root).resolve()
    graph = ProjectGraph(root, package)
    for path in sorted(root.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        relative = path.relative_to(root).with_suffix("")
        parts = [package, *relative.parts]
        if parts[-1] == "__init__":
            parts = parts[:-1]
        name = ".".join(parts)
        graph.modules[name] = _parse_module(name, path)
    for module in graph.modules.values():
        _register_functions(graph, module)
    for qualnames in graph.by_name.values():
        qualnames.sort()
    _link_class_hierarchy(graph)
    _extract_edges(graph)
    _collect_binding_mutators(graph)
    return graph


# ----------------------------------------------------------------------
# Module-level binding mutation inventory (shared by purity/forksafe)
# ----------------------------------------------------------------------

#: Container methods that mutate their receiver in place.
MUTATING_METHODS = frozenset({
    "add", "append", "clear", "discard", "extend", "insert", "pop",
    "popitem", "remove", "setdefault", "update",
})


def _function_local_names(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
) -> set[str]:
    """Names the function binds locally (params + plain assignments)."""
    names = {a.arg for a in [*node.args.args, *node.args.posonlyargs,
                             *node.args.kwonlyargs]}
    if node.args.vararg:
        names.add(node.args.vararg.arg)
    if node.args.kwarg:
        names.add(node.args.kwarg.arg)
    for child in ast.walk(node):
        if isinstance(child, ast.Assign):
            for target in child.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(child, (ast.AnnAssign, ast.For)):
            target = child.target
            if isinstance(target, ast.Name):
                names.add(target.id)
    return names


def global_writes(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
) -> dict[str, int]:
    """``global``-declared names the function assigns, with line numbers."""
    declared: set[str] = set()
    writes: dict[str, int] = {}
    for child in ast.walk(node):
        if isinstance(child, ast.Global):
            declared.update(child.names)
    if not declared:
        return writes
    for child in ast.walk(node):
        targets: list[ast.expr] = []
        if isinstance(child, ast.Assign):
            targets = list(child.targets)
        elif isinstance(child, (ast.AnnAssign, ast.AugAssign)):
            targets = [child.target]
        elif isinstance(child, ast.Delete):
            targets = list(child.targets)
        for target in targets:
            if isinstance(target, ast.Name) and target.id in declared:
                writes.setdefault(target.id, child.lineno)
    return writes


def container_mutations(
    module: ModuleInfo,
    node: ast.FunctionDef | ast.AsyncFunctionDef,
) -> dict[str, int]:
    """In-place mutations of the module's own top-level bindings.

    Catches ``X[k] = v``, ``del X[k]``, ``X.append(...)``-style calls,
    and ``X |= ...`` where ``X`` is a module-level binding the function
    does not shadow locally.
    """
    mutable = {name for name, b in module.bindings.items()
               if b.mutable_value}
    if not mutable:
        return {}
    shadowed = _function_local_names(node)
    candidates = mutable - shadowed
    if not candidates:
        return {}
    mutations: dict[str, int] = {}

    def base_name(expr: ast.expr) -> str | None:
        if (isinstance(expr, ast.Subscript)
                and isinstance(expr.value, ast.Name)):
            return expr.value.id
        return None

    for child in ast.walk(node):
        if isinstance(child, ast.Assign):
            for target in child.targets:
                name = base_name(target)
                if name in candidates:
                    mutations.setdefault(name, child.lineno)
        elif isinstance(child, ast.AugAssign):
            target = child.target
            if isinstance(target, ast.Name) and target.id in candidates:
                mutations.setdefault(target.id, child.lineno)
            else:
                name = base_name(target)
                if name in candidates:
                    mutations.setdefault(name, child.lineno)
        elif isinstance(child, ast.Delete):
            for target in child.targets:
                name = base_name(target)
                if name in candidates:
                    mutations.setdefault(name, child.lineno)
        elif isinstance(child, ast.Call):
            func = child.func
            if (isinstance(func, ast.Attribute)
                    and func.attr in MUTATING_METHODS
                    and isinstance(func.value, ast.Name)
                    and func.value.id in candidates):
                mutations.setdefault(func.value.id, child.lineno)
    return mutations


def cross_module_writes(
    graph: ProjectGraph,
    module: ModuleInfo,
    node: ast.FunctionDef | ast.AsyncFunctionDef,
) -> dict[tuple[str, str], int]:
    """Assignments to *another* module's attributes: ``mod.NAME = v``.

    Returns ``{(target_module, attribute): line}``.  Only aliases that
    resolve to project modules are considered.
    """
    writes: dict[tuple[str, str], int] = {}
    for child in ast.walk(node):
        targets: list[ast.expr] = []
        if isinstance(child, ast.Assign):
            targets = list(child.targets)
        elif isinstance(child, (ast.AnnAssign, ast.AugAssign)):
            targets = [child.target]
        for target in targets:
            if not isinstance(target, ast.Attribute):
                continue
            base = flatten_dotted(target.value)
            if base is None:
                continue
            head, _, rest = base.partition(".")
            resolved = module.module_aliases.get(head)
            if resolved is None:
                sym = module.symbol_aliases.get(head)
                if sym is not None and sym in graph.modules:
                    resolved = sym
            if resolved is None:
                continue
            target_module = f"{resolved}.{rest}" if rest else resolved
            if target_module in graph.modules:
                writes[(target_module, target.attr)] = child.lineno
    return writes


def _collect_binding_mutators(graph: ProjectGraph) -> None:
    """Fill :attr:`ModuleBinding.mutators` across the whole project."""
    for function in graph.functions.values():
        module = graph.modules[function.module]
        for name in global_writes(function.node):
            binding = module.bindings.get(name)
            if binding is None:
                # A ``global`` write can introduce the binding.
                binding = ModuleBinding(name=name, module=module.name,
                                        lineno=function.lineno)
                module.bindings[name] = binding
            binding.mutators.append(function.qualname)
        for name in container_mutations(module, function.node):
            binding = module.bindings[name]
            binding.mutators.append(function.qualname)
        for (target_module, attr) in cross_module_writes(
                graph, module, function.node):
            target = graph.modules.get(target_module)
            if target is None:
                continue
            binding = target.bindings.get(attr)
            if binding is None:
                binding = ModuleBinding(name=attr, module=target_module,
                                        lineno=1)
                target.bindings[attr] = binding
            binding.mutators.append(f"*{function.qualname}")
    for module in graph.modules.values():
        for binding in module.bindings.values():
            binding.mutators.sort()
