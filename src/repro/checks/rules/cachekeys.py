"""R9 — cache-key completeness: epoch-keyed cache reads stay dominated.

R3 (per-file) guarantees cache *rewrites* re-key; this rule covers the
other half of the contract, which is inherently interprocedural:

1. **Key completeness** — wherever a cache key is *assigned* or
   *compared*, the key expression must cover every epoch counter the
   cached data transitively depends on.  ``_plan_cache`` (and the epoch
   engine's read table ``_ff_tables``, chained to it) depends on both
   the layout epoch and the array state epoch.  A key tuple that drops
   a counter — ``(self.layout.epoch,)`` where ``state_epoch`` is
   required — would serve stale plans across fault transitions, the
   exact bug class PR 6 made possible.  Chained keys are understood:
   validating ``_ff_tables_key`` against ``_plan_cache_key`` inherits
   the parent key's coverage.

2. **Dominated reads** — every *path* through the project call graph
   from an entry point (a ``src`` function no other ``src`` function
   calls) to a cache read must pass a key check first: either the
   reading function checks/refreshes the key itself before the read, or
   some caller on the path does (directly or by calling a guard
   function such as ``_refresh_plan_cache``) before the call.  A read
   reachable with no dominating check is flagged at the read site.

Cache and key fields match on any receiver, so a module function
handed the scheduler (the epoch engine's ``sched._ff_tables_key``) is
held to the same contract as a method on ``self``; the families live in
:mod:`repro.checks.effects`, shared with R3.  Key expressions built
from parameters or calls are treated as opaque and trusted (the caller
owns completeness); only statically resolvable tuples/attributes are
judged.  Line order approximates domination inside one body — the
idiom this repo uses (guard at function top) is exactly what the
approximation models.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.checks.core import FileContext, Finding, Rule, in_project_source
from repro.checks.effects import FAMILIES, MUTATOR_METHODS, ProjectAnalysis


_KEY_FIELDS = frozenset(f.key for f in FAMILIES) \
    | frozenset(k for f in FAMILIES for k in f.parent_keys)


@dataclass
class _Coverage:
    """What a key expression statically covers."""

    counters: frozenset[str]
    key_fields: frozenset[str]
    resolvable: bool
    is_none: bool


@dataclass
class _FunctionFacts:
    """Per-function R9 facts: reads, guards, and completeness issues."""

    #: family label -> line of each cache read.
    reads: dict[str, list[int]]
    #: family label -> earliest line of an adequate own guard.
    guard_line: dict[str, int]
    #: (line, col, message) completeness findings.
    incomplete: list[tuple[int, int, str]]


class CacheKeyRule(Rule):
    """R9: cache keys cover their epochs; reads are dominated by checks."""

    rule_id = "R9"
    name = "cache-keys"
    description = ("epoch-keyed cache reads must be dominated by a key "
                   "check whose tuple covers every epoch counter the "
                   "cached data depends on")

    def applies_to(self, path: str) -> bool:
        return in_project_source(path)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        project = ctx.project
        if not isinstance(project, ProjectAnalysis):
            return
        facts, unguarded = _project_analysis(project, self)
        for decl in project.functions_in(ctx.path):
            fact = facts.get(decl.qualname)
            if fact is None:
                continue
            for line, col, message in fact.incomplete:
                yield Finding(rule_id=self.rule_id, rule_name=self.name,
                              path=ctx.path, line=line, col=col,
                              message=message)
            for family_label, line, entry in sorted(
                    unguarded.get(decl.qualname, [])):
                family = next(f for f in FAMILIES
                              if f.label == family_label)
                yield Finding(
                    rule_id=self.rule_id, rule_name=self.name,
                    path=ctx.path, line=line, col=0,
                    message=(f"read of {'/'.join(sorted(family.fields))} "
                             f"is not dominated by a {family.key} check "
                             f"on the call path from '{entry}'; a stale "
                             "epoch pair could serve outdated plans"),
                )


# -- per-function fact extraction --------------------------------------------

_ANALYSIS_CACHE: dict[int, tuple[object, tuple]] = {}


def _project_analysis(project: ProjectAnalysis, rule: Rule) -> tuple:
    """(facts, unguarded reads), memoised per ProjectAnalysis.

    The project-wide pass runs once per analyzer run, not once per
    file.  The cache holds a strong reference to the project so a
    recycled ``id()`` can never alias a dead project's results.
    """
    entry = _ANALYSIS_CACHE.get(id(project))
    if entry is not None and entry[0] is project:
        return entry[1]
    facts = {qual: _function_facts(decl.node)
             for qual, decl in project.graph.functions.items()}
    result = (facts, _unguarded_reads(project, facts, rule))
    _ANALYSIS_CACHE.clear()  # one project alive at a time
    _ANALYSIS_CACHE[id(project)] = (project, result)
    return result


def _function_facts(func: ast.AST) -> _FunctionFacts:
    env: dict[str, ast.expr] = {}
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            env.setdefault(node.targets[0].id, node.value)

    mutator_receivers = {
        id(node.func.value) for node in ast.walk(func)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in MUTATOR_METHODS}
    store_targets: set[int] = set()
    for node in ast.walk(func):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                for child in ast.walk(target):
                    store_targets.add(id(child))

    reads: dict[str, list[int]] = {}
    guard_line: dict[str, int] = {}
    incomplete: list[tuple[int, int, str]] = []

    for node in ast.walk(func):
        if isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, ast.Load) \
                and id(node) not in mutator_receivers \
                and id(node) not in store_targets:
            for family in FAMILIES:
                if node.attr in family.fields:
                    reads.setdefault(family.label, []).append(node.lineno)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Attribute) \
                        and target.attr in _KEY_FIELDS:
                    _record_guard(target.attr, node.value, node, env,
                                  guard_line, incomplete, "assignment")
        elif isinstance(node, ast.Compare) and len(node.ops) == 1 \
                and isinstance(node.ops[0], (ast.Eq, ast.NotEq)):
            sides = (node.left, node.comparators[0])
            for key_side, other in (sides, sides[::-1]):
                key_field = _key_field_of(key_side, env)
                if key_field:
                    _record_guard(key_field, other, node, env,
                                  guard_line, incomplete, "comparison")
                    break
    return _FunctionFacts(reads=reads, guard_line=guard_line,
                          incomplete=incomplete)


def _record_guard(key_field: str, expr: ast.expr, node: ast.AST,
                  env: dict[str, ast.expr],
                  guard_line: dict[str, int],
                  incomplete: list[tuple[int, int, str]],
                  kind: str) -> None:
    family = next((f for f in FAMILIES if f.key == key_field), None)
    if family is None:
        return
    coverage = _coverage_of(expr, env, depth=0)
    if coverage.is_none and kind == "comparison":
        # ``key is None`` presence checks say nothing about freshness.
        return
    adequate = (
        coverage.is_none  # assignment of None = invalidation
        or not coverage.resolvable  # opaque (param/call): caller owns it
        or coverage.counters >= family.counters
        or bool(coverage.key_fields & (family.parent_keys | {family.key})))
    if adequate:
        line = node.lineno
        if family.label not in guard_line or line < guard_line[family.label]:
            guard_line[family.label] = line
    else:
        missing = sorted(family.counters - coverage.counters)
        incomplete.append((
            node.lineno, getattr(node, "col_offset", 0),
            f"{family.key} {kind} covers only "
            f"[{', '.join(sorted(coverage.counters)) or 'nothing'}] — "
            f"missing epoch counter(s): {', '.join(missing)}; the "
            f"{family.label} cache depends on all of "
            f"[{', '.join(sorted(family.counters))}]"))


def _key_field_of(node: ast.expr, env: dict[str, ast.expr],
                  depth: int = 0) -> Optional[str]:
    """The cache-key field an expression denotes, through local aliases."""
    if isinstance(node, ast.Attribute) and node.attr in _KEY_FIELDS:
        return node.attr
    if isinstance(node, ast.Name) and depth < 4:
        bound = env.get(node.id)
        if bound is not None and bound is not node:
            return _key_field_of(bound, env, depth + 1)
    return None


def _coverage_of(node: ast.expr, env: dict[str, ast.expr],
                 depth: int) -> _Coverage:
    if depth > 6:
        return _Coverage(frozenset(), frozenset(), resolvable=False,
                         is_none=False)
    if isinstance(node, ast.Constant):
        return _Coverage(frozenset(), frozenset(), resolvable=True,
                         is_none=node.value is None)
    if isinstance(node, ast.Tuple):
        counters: set[str] = set()
        keys: set[str] = set()
        resolvable = True
        for element in node.elts:
            sub = _coverage_of(element, env, depth + 1)
            counters |= sub.counters
            keys |= sub.key_fields
            resolvable = resolvable and sub.resolvable
        return _Coverage(frozenset(counters), frozenset(keys),
                         resolvable=resolvable, is_none=False)
    if isinstance(node, ast.Attribute):
        if node.attr in _KEY_FIELDS:
            return _Coverage(frozenset(), frozenset({node.attr}),
                             resolvable=True, is_none=False)
        return _Coverage(frozenset({node.attr}), frozenset(),
                         resolvable=True, is_none=False)
    if isinstance(node, ast.Name):
        bound = env.get(node.id)
        if bound is not None and bound is not node:
            return _coverage_of(bound, env, depth + 1)
        return _Coverage(frozenset(), frozenset(), resolvable=False,
                         is_none=False)
    return _Coverage(frozenset(), frozenset(), resolvable=False,
                     is_none=False)


# -- dominated-read path analysis --------------------------------------------

def _unguarded_reads(project: ProjectAnalysis,
                     facts: dict[str, _FunctionFacts],
                     rule: Rule,
                     ) -> dict[str, list[tuple[str, int, str]]]:
    """qualname -> [(family label, read line, entry function)] reached
    on some call path with no dominating key check."""
    graph = project.graph
    guard_funcs: dict[str, set[str]] = {f.label: set() for f in FAMILIES}
    for qual, fact in facts.items():
        for label in fact.guard_line:
            guard_funcs[label].add(qual)

    readers = {qual for qual, fact in facts.items() if fact.reads}
    if not readers:
        return {}

    src_callers: dict[str, bool] = {}
    for qual in graph.functions:
        src_callers[qual] = any(
            in_project_source(graph.functions[e.caller].path)
            and not project.edge_suppressed(e.path, e.line, rule.rule_id,
                                            rule.name)
            for e in graph.edges_to.get(qual, ()))
    roots = [qual for qual, decl in graph.functions.items()
             if in_project_source(decl.path) and not src_callers[qual]]

    flagged: dict[str, dict[tuple[str, int], str]] = {}
    visited: set[tuple[str, frozenset[str]]] = set()

    def visit(qual: str, guarded: frozenset[str], entry: str) -> None:
        state = (qual, guarded)
        if state in visited:
            return
        visited.add(state)
        fact = facts.get(qual)
        if fact is None:
            return
        own_guards = fact.guard_line
        for label, lines in fact.reads.items():
            if label in guarded:
                continue
            guard_at = own_guards.get(label)
            for line in lines:
                if guard_at is None or guard_at >= line:
                    flagged.setdefault(qual, {}).setdefault(
                        (label, line), entry)
        guard_call_lines: dict[str, int] = {}
        for edge in graph.edges_from.get(qual, ()):
            for label, funcs in guard_funcs.items():
                if edge.callee in funcs:
                    prior = guard_call_lines.get(label)
                    if prior is None or edge.line < prior:
                        guard_call_lines[label] = edge.line
        for edge in graph.edges_from.get(qual, ()):
            if project.edge_suppressed(edge.path, edge.line, rule.rule_id,
                                       rule.name):
                continue
            passed = set(guarded)
            for label in (f.label for f in FAMILIES):
                own = own_guards.get(label)
                via_call = guard_call_lines.get(label)
                if (own is not None and own < edge.line) \
                        or (via_call is not None and via_call < edge.line):
                    passed.add(label)
            visit(edge.callee, frozenset(passed), entry)

    for root in sorted(roots):
        visit(root, frozenset(), root.rsplit(".", 1)[-1])
    return {qual: sorted((label, line, entry)
                         for (label, line), entry in sites.items())
            for qual, sites in flagged.items()}
