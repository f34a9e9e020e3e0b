"""Project-wide call graph for the interprocedural rules (R8–R10).

The per-file rules of PRs 2–6 see one AST at a time; the flow rules need
to know *who calls whom* across the repo.  This module builds that graph
from the already-parsed module set:

* every module-level function and every method becomes a
  :class:`FunctionDecl`, keyed by a dotted qualname
  (``repro.sched.base.CycleScheduler._ff_classify``);
* direct calls, ``from``-imports, and module-alias calls (``import
  a.b as m`` or ``from a import b``, then ``m.f()``/``b.f()``) resolve to
  the target module's functions;
* ``self.``/``cls.``/``super().`` method calls resolve through the class
  hierarchy — conservatively to *every* override in the receiver's
  hierarchy family (ancestors and descendants), because the scheduler /
  layout / disk hierarchies dispatch dynamically;
* attribute receivers with known types (``self.array.fail(...)`` where
  ``__init__`` stored an annotated ``array: DiskArray`` parameter) and
  annotated locals/parameters resolve the same way;
* attribute *loads* that hit a known ``@property`` add an edge to the
  getter (eligibility probes read properties, and a property with side
  effects must not hide from R8).

Resolution is deliberately best-effort: an unresolvable call contributes
no edge (rules built on the graph under-approximate rather than guess),
but every resolved edge records its call site so rules can honour
call-site suppressions.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

#: Receivers that bind to the enclosing class.
_SELF_NAMES = frozenset({"self", "cls"})


@dataclass
class FunctionDecl:
    """One module-level function or method in the project."""

    qualname: str
    module: str
    path: str
    name: str
    cls: Optional[str]
    node: ast.AST
    lineno: int
    is_property: bool = False


@dataclass(frozen=True)
class CallEdge:
    """One resolved call site: ``caller`` invokes ``callee``."""

    caller: str
    callee: str
    path: str
    line: int


def module_name(path: str) -> str:
    """Dotted module name for a repo-relative path.

    ``src/repro/sched/base.py`` -> ``repro.sched.base``;
    ``tests/checks/test_cli.py`` -> ``tests.checks.test_cli``.
    """
    parts = [p for p in path.replace("\\", "/").split("/") if p]
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def subsystem_of(path: str) -> str:
    """The subsystem a file belongs to (R10's sharing boundary).

    For ``src/repro/<pkg>/...`` it is ``<pkg>``; for a top-level module
    ``src/repro/<mod>.py`` it is ``<mod>``; anything else keeps its
    first path component (``tests``, ``benchmarks``).
    """
    parts = [p for p in path.replace("\\", "/").split("/") if p]
    # Locate ``src/repro`` anywhere in the path, not only at the start:
    # analysis may run on an absolute copy of the tree (mutation audit).
    for i in range(len(parts) - 2):
        if parts[i] == "src" and parts[i + 1] == "repro":
            head = parts[i + 2]
            return head[:-3] if head.endswith(".py") else head
    return parts[0] if parts else ""


def annotation_class(node: Optional[ast.expr]) -> Optional[str]:
    """The bare class name an annotation refers to, if recognisable.

    Unwraps ``Optional[T]``, ``T | None``, and string annotations;
    returns None for containers and unresolvable shapes.
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value.strip()
        if text.replace(".", "").replace("_", "").isalnum():
            return text.rsplit(".", 1)[-1] or None
        return None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Subscript):
        base = annotation_class(node.value)
        if base == "Optional":
            return annotation_class(node.slice)
        return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        left = annotation_class(node.left)
        right = annotation_class(node.right)
        if left in (None, "None"):
            return right if right != "None" else None
        if right in (None, "None"):
            return left if left != "None" else None
        return None
    return None


@dataclass
class _ModuleScope:
    """Per-module name resolution context."""

    #: local name -> (module, member) for ``from x import y [as z]``.
    from_imports: dict[str, tuple[str, str]] = field(default_factory=dict)
    #: local alias -> module for ``import x.y [as z]``.
    module_aliases: dict[str, str] = field(default_factory=dict)


class CallGraph:
    """Functions, classes, and resolved call edges for one project."""

    def __init__(self) -> None:
        self.functions: dict[str, FunctionDecl] = {}
        #: class name -> {method name -> qualname}.
        self.methods: dict[str, dict[str, str]] = {}
        #: class name -> declared base-class names.
        self.bases: dict[str, tuple[str, ...]] = {}
        #: class name -> direct subclasses.
        self.derived: dict[str, set[str]] = {}
        #: (class, attribute) -> inferred class of the attribute value.
        self.attr_types: dict[tuple[str, str], str] = {}
        #: (module, function name) -> qualname for module-level defs.
        self.module_functions: dict[tuple[str, str], str] = {}
        self.edges_from: dict[str, list[CallEdge]] = {}
        self.edges_to: dict[str, list[CallEdge]] = {}
        self._scopes: dict[str, _ModuleScope] = {}
        self._family_cache: dict[str, frozenset[str]] = {}

    # -- construction --------------------------------------------------------

    @classmethod
    def build(cls, parsed: Iterable[tuple[str, ast.Module]]) -> "CallGraph":
        """Build the graph from ``(repo-relative path, parsed tree)``."""
        graph = cls()
        modules = list(parsed)
        for path, tree in modules:
            graph._index_module(path, tree)
        # Attribute types need the full class catalog (``self.x = Cls()``
        # may construct a class indexed later), so infer in a second pass.
        for _path, tree in modules:
            for node in tree.body:
                if isinstance(node, ast.ClassDef):
                    for statement in node.body:
                        if isinstance(statement, (ast.FunctionDef,
                                                  ast.AsyncFunctionDef)):
                            graph._infer_attr_types(node.name, statement)
        for path, tree in modules:
            graph._resolve_module(path, tree)
        return graph

    def _index_module(self, path: str, tree: ast.Module) -> None:
        module = module_name(path)
        scope = self._scopes.setdefault(module, _ModuleScope())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module \
                    and node.level == 0:
                for alias in node.names:
                    scope.from_imports[alias.asname or alias.name] = (
                        node.module, alias.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    scope.module_aliases[
                        alias.asname or alias.name.split(".")[0]
                    ] = alias.name
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(path, module, node, cls_name=None)
            elif isinstance(node, ast.ClassDef):
                self._index_class(path, module, node)

    def _index_class(self, path: str, module: str,
                     node: ast.ClassDef) -> None:
        cls_name = node.name
        bases = tuple(_bare_name(base) for base in node.bases)
        self.bases.setdefault(cls_name, bases)
        for base in bases:
            if base:
                self.derived.setdefault(base, set()).add(cls_name)
        for statement in node.body:
            if isinstance(statement, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                self._add_function(path, module, statement, cls_name)

    def _add_function(self, path: str, module: str, node: ast.AST,
                      cls_name: Optional[str]) -> None:
        name = node.name  # type: ignore[attr-defined]
        qual = (f"{module}.{cls_name}.{name}" if cls_name
                else f"{module}.{name}")
        decl = FunctionDecl(
            qualname=qual, module=module, path=path, name=name,
            cls=cls_name, node=node,
            lineno=node.lineno,  # type: ignore[attr-defined]
            is_property=any(
                _bare_name(d) == "property" or _bare_name(d) == "cached_property"
                for d in node.decorator_list),  # type: ignore[attr-defined]
        )
        # First definition wins (mirrors ProjectIndex's bare-name policy).
        self.functions.setdefault(qual, decl)
        if cls_name:
            self.methods.setdefault(cls_name, {}).setdefault(name, qual)
        else:
            self.module_functions.setdefault((module, name), qual)

    def _infer_attr_types(self, cls_name: str, method: ast.AST) -> None:
        """Record ``self.X`` value types visible in one method body.

        ``self.X: T = ...`` records T anywhere; inside ``__init__``,
        ``self.X = <annotated param>`` and ``self.X = ClassName(...)``
        record the parameter annotation / constructed class.
        """
        params: dict[str, str] = {}
        if method.name == "__init__":  # type: ignore[attr-defined]
            args = method.args  # type: ignore[attr-defined]
            for arg in args.posonlyargs + args.args + args.kwonlyargs:
                annotated = annotation_class(arg.annotation)
                if annotated:
                    params[arg.arg] = annotated
        for node in ast.walk(method):
            if isinstance(node, ast.AnnAssign) \
                    and isinstance(node.target, ast.Attribute) \
                    and _receiver_name(node.target.value) in _SELF_NAMES:
                annotated = annotation_class(node.annotation)
                if annotated:
                    self.attr_types.setdefault(
                        (cls_name, node.target.attr), annotated)
            elif isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Attribute) \
                    and _receiver_name(node.targets[0].value) in _SELF_NAMES:
                attr = node.targets[0].attr
                value = node.value
                if isinstance(value, ast.Name) and value.id in params:
                    self.attr_types.setdefault((cls_name, attr),
                                               params[value.id])
                elif isinstance(value, ast.Call):
                    callee = _bare_name(value.func)
                    if callee in self.bases or callee in self.methods:
                        self.attr_types.setdefault((cls_name, attr), callee)

    # -- hierarchy queries ---------------------------------------------------

    def family(self, cls_name: str) -> frozenset[str]:
        """The class plus all its known ancestors and descendants."""
        cached = self._family_cache.get(cls_name)
        if cached is not None:
            return cached
        members = {cls_name}
        frontier = [cls_name]
        while frontier:
            current = frontier.pop()
            for base in self.bases.get(current, ()):
                if base and base not in members and base in self.bases:
                    members.add(base)
                    frontier.append(base)
        frontier = list(members)
        while frontier:
            current = frontier.pop()
            for sub in self.derived.get(current, ()):
                if sub not in members:
                    members.add(sub)
                    frontier.append(sub)
        result = frozenset(members)
        self._family_cache[cls_name] = result
        return result

    def ancestors(self, cls_name: str) -> frozenset[str]:
        """All known base classes, transitively (excludes the class)."""
        members: set[str] = set()
        frontier = list(self.bases.get(cls_name, ()))
        while frontier:
            current = frontier.pop()
            if current and current not in members:
                members.add(current)
                frontier.extend(self.bases.get(current, ()))
        return frozenset(members)

    def resolve_method(self, cls_name: str, method: str,
                       ancestors_only: bool = False) -> list[str]:
        """Qualnames a ``<cls>.method(...)`` dispatch may reach."""
        pool = (self.ancestors(cls_name) if ancestors_only
                else self.family(cls_name))
        found = [self.methods[c][method] for c in sorted(pool)
                 if method in self.methods.get(c, {})]
        return found

    def property_getter(self, cls_name: str,
                        attribute: str) -> Optional[str]:
        """The property getter an attribute load would invoke, if any."""
        for candidate in self.resolve_method(cls_name, attribute):
            if self.functions[candidate].is_property:
                return candidate
        return None

    # -- call resolution -----------------------------------------------------

    def _resolve_module(self, path: str, tree: ast.Module) -> None:
        module = module_name(path)
        for decl_body, cls_name in _iter_functions(tree):
            name = decl_body.name
            qual = (f"{module}.{cls_name}.{name}" if cls_name
                    else f"{module}.{name}")
            caller = self.functions.get(qual)
            if caller is None or caller.node is not decl_body:
                continue
            self._resolve_function(caller)

    def _resolve_function(self, caller: FunctionDecl) -> None:
        scope = self._scopes.get(caller.module, _ModuleScope())
        local_types = _local_types(caller.node, self)
        edges: list[CallEdge] = []
        seen: set[tuple[str, int]] = set()

        def add(callee: str, line: int) -> None:
            key = (callee, line)
            if callee in self.functions and key not in seen:
                seen.add(key)
                edges.append(CallEdge(caller=caller.qualname, callee=callee,
                                      path=caller.path, line=line))

        for node in ast.walk(caller.node):
            if isinstance(node, ast.Call):
                for target in self._call_targets(node, caller, scope,
                                                 local_types):
                    add(target, node.lineno)
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                receiver = self._receiver_class(node.value, caller, scope,
                                                local_types)
                if receiver:
                    getter = self.property_getter(receiver, node.attr)
                    if getter:
                        add(getter, node.lineno)
        self.edges_from[caller.qualname] = edges
        for edge in edges:
            self.edges_to.setdefault(edge.callee, []).append(edge)

    def _call_targets(self, node: ast.Call, caller: FunctionDecl,
                      scope: _ModuleScope,
                      local_types: dict[str, str]) -> list[str]:
        func = node.func
        if isinstance(func, ast.Name):
            return self._name_targets(func.id, caller, scope)
        if isinstance(func, ast.Attribute):
            receiver = func.value
            # super().method(...)
            if isinstance(receiver, ast.Call) \
                    and isinstance(receiver.func, ast.Name) \
                    and receiver.func.id == "super" and caller.cls:
                return self.resolve_method(caller.cls, func.attr,
                                           ancestors_only=True)
            # module_alias.func(...)
            module = self._module_alias(receiver, scope)
            if module is not None:
                target = self.module_functions.get((module, func.attr))
                return [target] if target else []
            receiver_cls = self._receiver_class(receiver, caller, scope,
                                                local_types)
            if receiver_cls:
                return self.resolve_method(receiver_cls, func.attr)
        return []

    def _module_alias(self, receiver: ast.expr,
                      scope: _ModuleScope) -> Optional[str]:
        """The module a receiver name is bound to by ``import a.b as m``
        or by ``from a import b`` where ``a.b`` is a project module."""
        if not isinstance(receiver, ast.Name):
            return None
        if receiver.id in scope.module_aliases:
            return scope.module_aliases[receiver.id]
        imported = scope.from_imports.get(receiver.id)
        if imported is not None and ".".join(imported) in self._scopes:
            return ".".join(imported)
        return None

    def _name_targets(self, name: str, caller: FunctionDecl,
                      scope: _ModuleScope) -> list[str]:
        target = self.module_functions.get((caller.module, name))
        if target:
            return [target]
        imported = scope.from_imports.get(name)
        if imported:
            module, member = imported
            target = self.module_functions.get((module, member))
            if target:
                return [target]
            if member in self.methods and "__init__" in self.methods[member]:
                return [self.methods[member]["__init__"]]
        if name in self.methods and "__init__" in self.methods[name]:
            return [self.methods[name]["__init__"]]
        return []

    def _receiver_class(self, receiver: ast.expr, caller: FunctionDecl,
                        scope: _ModuleScope,
                        local_types: dict[str, str]) -> Optional[str]:
        """The class a call/attribute receiver expression is known to be."""
        if isinstance(receiver, ast.Name):
            if receiver.id in _SELF_NAMES and caller.cls:
                return caller.cls
            return local_types.get(receiver.id)
        if isinstance(receiver, ast.Attribute) \
                and _receiver_name(receiver.value) in _SELF_NAMES \
                and caller.cls:
            for cls_name in sorted(self.family(caller.cls)):
                inferred = self.attr_types.get((cls_name, receiver.attr))
                if inferred:
                    return inferred
        return None


def _iter_functions(tree: ast.Module,
                    ) -> Iterator[tuple[ast.AST, Optional[str]]]:
    """Yield ``(function node, enclosing class name)`` for every
    module-level function and method (nested defs belong to their
    enclosing function and are not yielded separately)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, None
        elif isinstance(node, ast.ClassDef):
            for statement in node.body:
                if isinstance(statement, (ast.FunctionDef,
                                          ast.AsyncFunctionDef)):
                    yield statement, node.name


def _local_types(func: ast.AST, graph: CallGraph) -> dict[str, str]:
    """Best-effort local-variable and parameter types for one function."""
    types: dict[str, str] = {}
    args = func.args  # type: ignore[attr-defined]
    for arg in args.posonlyargs + args.args + args.kwonlyargs:
        annotated = annotation_class(arg.annotation)
        if annotated:
            types[arg.arg] = annotated
    for node in ast.walk(func):
        if isinstance(node, ast.AnnAssign) \
                and isinstance(node.target, ast.Name):
            annotated = annotation_class(node.annotation)
            if annotated:
                types.setdefault(node.target.id, annotated)
        elif isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and isinstance(node.value, ast.Call):
            constructed = _bare_name(node.value.func)
            if constructed in graph.bases:
                types.setdefault(node.targets[0].id, constructed)
    return types


def _bare_name(node: ast.expr) -> str:
    """Bare trailing name of a Name/Attribute/Call expression."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _receiver_name(node: ast.expr) -> str:
    return node.id if isinstance(node, ast.Name) else ""
