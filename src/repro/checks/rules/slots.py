"""R4 — slots consistency on the hot path.

PR 1 moved the cycle engine's per-entity classes to ``__slots__`` for
footprint and lookup speed.  This rule keeps that property from eroding:

* every class defined in the hot-path scope (``sched/``, ``disk/``,
  ``server/stream.py``) must declare ``__slots__``
  (or be a ``@dataclass(slots=True)``); enums, exceptions, and
  Protocols are exempt;
* inside a fully slotted class hierarchy, ``self.<attr> = ...`` must
  target a declared slot — an undeclared attribute would raise
  ``AttributeError`` at runtime on the first failure path that reaches
  it, which is exactly when you least want to discover it.

When a base class lives outside the project index the membership check
is skipped (never guessed).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.checks.core import (
    ClassInfo,
    FileContext,
    Finding,
    Rule,
    in_project_source,
    under,
)


class SlotsRule(Rule):
    """R4: hot-path classes declare __slots__ and stick to them."""

    rule_id = "R4"
    name = "slots"
    description = ("hot-path classes must declare __slots__ and only "
                   "assign declared attributes")

    def applies_to(self, path: str) -> bool:
        return in_project_source(path) and under(
            path, "sched/", "disk/", "server/stream.py")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(ctx, node)

    def _check_class(self, ctx: FileContext,
                     node: ast.ClassDef) -> Iterator[Finding]:
        info = ctx.index.lookup(node.name)
        if info is None or info.line != node.lineno:
            info = None
        if info is None or ctx.index.is_exempt(info):
            return
        if info.slots is None:
            if info.plain_dataclass:
                yield self.finding(
                    ctx, node,
                    f"hot-path dataclass '{node.name}' should use "
                    "@dataclass(slots=True)")
            else:
                yield self.finding(
                    ctx, node,
                    f"hot-path class '{node.name}' must declare __slots__")
            return
        declared = ctx.index.slot_union(info)
        if declared is None:
            return  # some base unresolved/unslotted: nothing to verify
        yield from self._check_assignments(ctx, node, info, declared)

    def _check_assignments(self, ctx: FileContext, node: ast.ClassDef,
                           info: ClassInfo, declared: frozenset[str],
                           ) -> Iterator[Finding]:
        for method in node.body:
            if not isinstance(method, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                continue
            self_name = _first_argument(method)
            if self_name is None:
                continue
            for statement in ast.walk(method):
                if not isinstance(statement,
                                  (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    continue
                targets = (statement.targets
                           if isinstance(statement, ast.Assign)
                           else [statement.target])
                for target in targets:
                    attr = _self_attribute(target, self_name)
                    if attr is not None and attr not in declared:
                        yield self.finding(
                            ctx, statement,
                            f"assignment to undeclared attribute "
                            f"'{attr}' on slotted class '{info.name}' "
                            f"(declare it in __slots__)")


def _first_argument(method: ast.FunctionDef | ast.AsyncFunctionDef,
                    ) -> Optional[str]:
    for decorator in method.decorator_list:
        name = decorator.id if isinstance(decorator, ast.Name) else \
            decorator.attr if isinstance(decorator, ast.Attribute) else ""
        if name == "staticmethod":
            return None
    if not method.args.args:
        return None
    return method.args.args[0].arg


def _self_attribute(target: ast.expr, self_name: str) -> Optional[str]:
    """``attr`` for a plain ``self.attr`` target; None otherwise.

    Subscript targets (``self.buffer[k] = v``) mutate existing slot
    values and are fine.
    """
    if isinstance(target, ast.Attribute) \
            and isinstance(target.value, ast.Name) \
            and target.value.id == self_name:
        return target.attr
    return None
