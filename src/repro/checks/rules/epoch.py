"""R3 — epoch-cache soundness: state mutations must bump an epoch.

PR 1's cycle-plan cache is keyed on ``(layout.epoch, array.state_epoch)``
and is only sound if *every* mutation of placement or array state moves
one of those counters.  This rule makes the contract machine-checked:

* a function in ``layout/`` that mutates placement state (the
  per-object records ``_placements`` and the allocator's
  ``_free_positions`` and ``_next_position``) must also call
  ``_record_delta()`` (or bump ``_epoch``) in the same body;
* a function in ``disk/`` that assigns the fault-domain state fields
  (``state``, ``is_failed``, ``service_fraction``, ``_media_errors``)
  must call the fault notifier ``_fault_changed()``; a bare
  ``state_changes`` bump is not enough, because the array's fault index
  (which answers ``failed_ids``, ``state_epoch``, capacity and scrub
  queries) would go stale.  The notifier itself must bump
  ``state_changes`` and ``refile`` the drive in that index;
* a function in ``sched/`` or ``faults/`` that moves a disk's fault
  domain through the array (``...array.fail/repair/degrade/restore/
  inject_media_error/begin_rebuild(...)``) must also call
  ``_invalidate_plan_cache()``;
* (declustered layout, PR 8) a function in ``layout/`` that mutates the
  block-design geometry memo (``_design_rows``, ``_design_scanned``)
  must bump the epoch or carry the ``allow(epoch-cache)`` marker — the
  memo is construction-time geometry (rows depend only on ``(D, C)``),
  but an unmarked mutation site could reorder or truncate the scan and
  silently remap every placed group;
* a function in ``sched/`` that *rewrites or evicts* from a plan
  cache (``_plan_cache``, the epoch engine's read table ``_ff_tables``
  and the rebuilder's vector-plan memo ``_ff_plan`` — whole-attribute
  assignment or a mutator-method call)
  must re-key it by assigning the matching key field
  (``_plan_cache_key``, ``_ff_tables_key``, ``_ff_plan_key``) or
  calling an invalidator in the same body.  The cache table and the call vocabularies are the ones
  :mod:`repro.checks.effects` gives R9 and the effect summaries.
  Subscript fills (``cache[k] = plan``) are exempt: lazily populating a
  cache under its current key is always sound.

``__init__`` is exempt (construction is not a live-state mutation);
helpers whose *callers* own the epoch bump carry an
``# repro: allow(epoch-cache)`` with a justifying comment.
"""

from __future__ import annotations

import ast
from typing import AbstractSet, Iterator

from repro.checks.core import (
    FileContext,
    Finding,
    Rule,
    in_project_source,
    under,
)
from repro.checks.effects import (
    ARRAY_STATE_CALLS,
    BUMP_CALLS,
    CACHE_FIELDS,
    CACHE_KEY_FIELDS,
    EPOCH_FIELDS,
    MUTATOR_METHODS,
)

#: Layout placement state: mutating any of these invalidates group plans.
PLACEMENT_FIELDS = frozenset({
    "_placements", "_free_positions", "_next_position",
})

#: Disk fault-domain state: flipping these must move ``state_changes``.
#: ``service_fraction`` (fail-slow) and ``_media_errors`` (latent sector
#: errors) feed the slot table and read path, so stale plans would serve
#: from a disk the fault domain already marked unhealthy.
DISK_STATE_FIELDS = frozenset({
    "state", "is_failed", "service_fraction", "_media_errors",
})

#: In ``disk/``, flipping a fault-domain field must call the notifier,
#: and the notifier must both bump ``state_changes`` and call
#: ``refile`` on the array's fault index: the index epoch and sets then
#: move with every per-disk epoch.
DISK_NOTIFIER = "_fault_changed"
DISK_INDEX_CALL = "refile"

#: The declustered layout's block-design memo: rows are scanned strictly
#: in diagonal order and every placed group's addresses derive from row
#: indices, so any mutation outside the designated (marked) materialiser
#: could remap placed data without moving the epoch.
DESIGN_CACHE_FIELDS = frozenset({"_design_rows", "_design_scanned"})


class EpochCacheRule(Rule):
    """R3: placement/array-state mutations must bump their epoch."""

    rule_id = "R3"
    name = "epoch-cache"
    description = ("mutations of placement or array state must bump the "
                   "corresponding epoch counter (plan-cache invalidation "
                   "contract)")

    def applies_to(self, path: str) -> bool:
        return in_project_source(path) and under(
            path, "layout/", "sched/", "disk/", "faults/")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        in_disk = under(ctx.path, "disk/")
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            if node.name == "__init__":
                continue
            fields = self._mutated_fields(node)
            if in_disk:
                yield from self._check_fault_notifier(ctx, node, fields)
                fields -= DISK_STATE_FIELDS
            mutated = sorted(fields)
            flips = self._array_state_calls(node)
            rewritten = sorted(self._cache_rewrites(node))
            if rewritten and not self._rekeys_cache(node) \
                    and not self._bumps_epoch(node):
                yield self.finding(
                    ctx, node,
                    f"'{node.name}' rewrites {', '.join(rewritten)} without "
                    "re-keying (_plan_cache_key/_ff_tables_key) — stale "
                    "plans would survive under a moved epoch pair")
            if not mutated and not flips:
                continue
            if self._bumps_epoch(node):
                continue
            if mutated:
                yield self.finding(
                    ctx, node,
                    f"'{node.name}' mutates {', '.join(mutated)} without "
                    "bumping an epoch (_record_delta/_epoch/"
                    "state_changes)")
            else:
                yield self.finding(
                    ctx, node,
                    f"'{node.name}' calls array.{flips[0]}() without "
                    "calling _invalidate_plan_cache()")

    def _check_fault_notifier(
            self, ctx: FileContext,
            func: ast.FunctionDef | ast.AsyncFunctionDef,
            fields: set[str]) -> Iterator[Finding]:
        """The ``disk/`` clause: fault-field flips go through the notifier."""
        if func.name == DISK_NOTIFIER and not (
                _assigns(func, {"state_changes"})
                and _calls(func, {DISK_INDEX_CALL})):
            yield self.finding(
                ctx, func,
                f"fault notifier '{DISK_NOTIFIER}' must bump state_changes "
                f"and call {DISK_INDEX_CALL}() — the per-disk epoch and the "
                "array's fault index would fall behind the fields")
        flipped = sorted(fields & DISK_STATE_FIELDS)
        if flipped and not _calls(func, {DISK_NOTIFIER}):
            yield self.finding(
                ctx, func,
                f"'{func.name}' mutates "
                f"{', '.join(flipped)} without calling {DISK_NOTIFIER}() — "
                "the array's fault index would go stale")

    # -- detection helpers ---------------------------------------------------

    def _mutated_fields(self, func: ast.AST) -> set[str]:
        protected = (PLACEMENT_FIELDS | DISK_STATE_FIELDS
                     | DESIGN_CACHE_FIELDS)
        fields: set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    name = _assigned_field(target)
                    if name in protected:
                        fields.add(name)
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    name = _assigned_field(target)
                    if name in protected:
                        fields.add(name)
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in MUTATOR_METHODS:
                for name in _attribute_names(node.func.value):
                    if name in protected:
                        fields.add(name)
        return fields

    def _array_state_calls(self, func: ast.AST) -> list[str]:
        calls: list[str] = []
        for node in ast.walk(func):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in ARRAY_STATE_CALLS \
                    and "array" in _attribute_names(node.func.value):
                calls.append(node.func.attr)
        return calls

    def _cache_rewrites(self, func: ast.AST) -> set[str]:
        """Plan caches this function rewrites or evicts from.

        Whole-attribute assignment (``self._plan_cache = {}``) and
        mutator-method calls (``.clear()``, ``.pop()``) count; subscript
        fills (``self._plan_cache[name] = plan``) do not — populating a
        cache under its current key needs no re-key.
        """
        fields: set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    # Attribute (not Subscript) target: whole rewrite.
                    if isinstance(target, ast.Attribute) \
                            and target.attr in CACHE_FIELDS:
                        fields.add(target.attr)
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in MUTATOR_METHODS:
                for name in _attribute_names(node.func.value):
                    if name in CACHE_FIELDS:
                        fields.add(name)
        return fields

    def _rekeys_cache(self, func: ast.AST) -> bool:
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if _assigned_field(target) in CACHE_KEY_FIELDS:
                        return True
        return False

    def _bumps_epoch(self, func: ast.AST) -> bool:
        return _calls(func, BUMP_CALLS) or _assigns(func, EPOCH_FIELDS)


def _calls(func: ast.AST, methods: AbstractSet[str]) -> bool:
    """True if ``func`` calls ``<anything>.m(...)`` for an ``m`` in
    ``methods``."""
    return any(isinstance(node, ast.Call)
               and isinstance(node.func, ast.Attribute)
               and node.func.attr in methods
               for node in ast.walk(func))


def _assigns(func: ast.AST, fields: AbstractSet[str]) -> bool:
    """True if ``func`` assigns (or augments) one of ``fields``."""
    for node in ast.walk(func):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            if any(_assigned_field(t) in fields for t in targets):
                return True
    return False


def _assigned_field(target: ast.expr) -> str:
    """The attribute name an assignment/delete ultimately touches.

    ``self._placements[k] = v`` and ``del self._placements[k]`` both resolve
    to the underlying attribute name.
    """
    while isinstance(target, ast.Subscript):
        target = target.value
    if isinstance(target, ast.Attribute):
        return target.attr
    return ""


def _attribute_names(node: ast.expr) -> set[str]:
    """All attribute/name identifiers inside an expression subtree."""
    names: set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Attribute):
            names.add(child.attr)
        elif isinstance(child, ast.Name):
            names.add(child.id)
    return names
