"""Per-function effect summaries propagated over the call graph.

Each function gets a :class:`EffectSummary` describing what it does to
simulator state *directly*; a fixpoint pass then unions summaries along
resolved call edges so a rule can ask "what can calling this function
*transitively* do?".  The effect lattice is small and join-only:

* ``writes`` — instance fields the function mutates (assignment,
  ``del``, in-place container mutators, including through one level of
  local aliasing: ``tally = self.report.x; tally[k] = v`` records
  ``report``);
* ``array_calls`` — fault-domain transitions routed through an array
  reference (``...array.fail(...)`` et al., matching R3's vocabulary);
* ``rng_draws`` — named-stream draws on a ``RandomSource`` receiver
  (stream name literal, a static f-string prefix like ``disk-*``, or
  ``<dynamic>``);
* ``stream_handles`` — raw ``.stream(...)`` generator acquisitions
  (R10's taint sources);
* ``cache_reads`` — loads of the epoch-keyed scheduler caches;
* ``epoch_bump`` — moves an epoch counter or calls an invalidator.

Everything is a conservative *under*-approximation on the call-graph
side (unresolved calls add no effects) and a mild *over*-approximation
on the receiver side (a write through ``self.X`` counts even when ``X``
is a scratch container), which is the right bias for rules that feed an
allow-list escape hatch.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.checks.callgraph import CallGraph, FunctionDecl, annotation_class

#: In-place container mutators (shared with R3 and R9).
MUTATOR_METHODS = frozenset({
    "pop", "popleft", "append", "appendleft", "extend", "insert", "clear",
    "update", "setdefault", "add", "discard", "remove", "fill", "sort",
})

#: Fault-domain transitions reachable through an array reference.
#: ``scrub`` is deliberately absent: the scrubber repairs media errors
#: through :meth:`Disk.scrub`, which bumps internally.
ARRAY_STATE_CALLS = frozenset({
    "fail", "repair", "degrade", "restore", "inject_media_error",
    "begin_rebuild",
})


@dataclass(frozen=True)
class CacheFamily:
    """One epoch-keyed cache, its key field, and its freshness sources."""

    label: str
    fields: frozenset[str]
    key: str
    #: Counter attribute tails the key must cover (``epoch`` is the
    #: layout epoch, ``state_epoch`` the array's fault-domain epoch).
    counters: frozenset[str]
    #: Other key fields whose coverage this key may inherit by
    #: comparison/assignment (key chaining).
    parent_keys: frozenset[str] = frozenset()


#: The epoch-keyed scheduler caches: R9 checks their keys and reads.
FAMILIES: tuple[CacheFamily, ...] = (
    CacheFamily("plan-cache", frozenset({"_plan_cache"}),
                "_plan_cache_key", frozenset({"epoch", "state_epoch"})),
    CacheFamily("ff-tables", frozenset({"_ff_tables", "_ff_flat"}),
                "_ff_tables_key", frozenset({"epoch", "state_epoch"}),
                frozenset({"_plan_cache_key"})),
)

#: Every epoch-keyed cache and its key field: the families plus the
#: rebuilder's vector-plan memo ``_ff_plan``, whose chained key
#: ``(scheduler._plan_cache_key, media_blocked)`` is no R9 family.
#: R3 requires a rewrite of a cache to re-key it; effect summaries
#: record reads of the caches.
CACHE_FIELDS = frozenset({"_ff_plan"}).union(
    *(family.fields for family in FAMILIES))
CACHE_KEY_FIELDS = frozenset({"_ff_plan_key"}).union(
    family.key for family in FAMILIES)

#: Calls that count as bumping an epoch / invalidating plan caches
#: (shared with R3).
BUMP_CALLS = frozenset({"_invalidate_plan_cache", "_record_delta"})

#: Attributes whose assignment *is* the epoch bump (shared with R3).
EPOCH_FIELDS = frozenset({"_epoch", "state_changes"})

#: ``RandomSource`` draw methods taking a stream name first.
RNG_DRAW_METHODS = frozenset({
    "exponential", "exponential_array", "uniform", "integers", "random",
    "random_array",
})

#: Receiver names treated as RandomSource even without type info.
RNG_RECEIVER_NAMES = frozenset({"rng", "_rng", "source", "random_source"})

#: Marker for draws whose stream name is not statically known.
DYNAMIC_STREAM = "<dynamic>"


@dataclass(frozen=True)
class EffectSummary:
    """What one function does to simulator state."""

    writes: frozenset[str] = frozenset()
    array_calls: frozenset[str] = frozenset()
    rng_draws: frozenset[str] = frozenset()
    stream_handles: frozenset[str] = frozenset()
    cache_reads: frozenset[str] = frozenset()
    epoch_bump: bool = False

    EMPTY: "EffectSummary" = None  # type: ignore[assignment]

    def union(self, other: "EffectSummary") -> "EffectSummary":
        """Join of two summaries (the lattice is union-only)."""
        if other == EffectSummary.EMPTY:
            return self
        return EffectSummary(
            writes=self.writes | other.writes,
            array_calls=self.array_calls | other.array_calls,
            rng_draws=self.rng_draws | other.rng_draws,
            stream_handles=self.stream_handles | other.stream_handles,
            cache_reads=self.cache_reads | other.cache_reads,
            epoch_bump=self.epoch_bump or other.epoch_bump,
        )

    @property
    def is_state_pure(self) -> bool:
        """True when the function touches no mutable simulator state."""
        return (not self.writes and not self.array_calls
                and not self.rng_draws and not self.epoch_bump)


EffectSummary.EMPTY = EffectSummary()


def stream_name_of(node: ast.expr) -> str:
    """The static stream-name key of a draw call's first argument.

    A string literal is exact; an f-string with a leading literal part
    becomes a ``prefix*`` pattern; anything else is ``<dynamic>``.
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr) and node.values:
        head = node.values[0]
        if isinstance(head, ast.Constant) and isinstance(head.value, str) \
                and head.value:
            return f"{head.value}*"
    return DYNAMIC_STREAM


def is_rng_receiver(receiver: ast.expr, decl: FunctionDecl,
                    graph: CallGraph,
                    local_types: dict[str, str]) -> bool:
    """Whether a draw-call receiver is (likely) a RandomSource."""
    if isinstance(receiver, ast.Name):
        if local_types.get(receiver.id) == "RandomSource":
            return True
        return receiver.id in RNG_RECEIVER_NAMES
    if isinstance(receiver, ast.Attribute):
        if receiver.attr in RNG_RECEIVER_NAMES:
            return True
        if isinstance(receiver.value, ast.Name) \
                and receiver.value.id in ("self", "cls") and decl.cls:
            for cls_name in sorted(graph.family(decl.cls)):
                if graph.attr_types.get(
                        (cls_name, receiver.attr)) == "RandomSource":
                    return True
    return False


def _self_alias_map(func: ast.AST) -> dict[str, str]:
    """Locals bound to ``self.<attr>...`` chains -> root attribute."""
    aliases: dict[str, str] = {}
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            root = _self_root(node.value)
            if root:
                aliases[node.targets[0].id] = root
    return aliases


def _self_root(node: ast.expr) -> Optional[str]:
    """The first attribute after ``self`` in an attribute chain."""
    chain: list[str] = []
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id in ("self", "cls") and chain:
        return chain[-1]
    return None


def _store_root(target: ast.expr, aliases: dict[str, str],
                inplace: bool = False) -> Optional[str]:
    """The instance field an assignment target ultimately mutates.

    A *bare* local name that aliases an attribute only counts when the
    store mutates through it (subscript store, in-place op, container
    mutator): plain reassignment just rebinds the local.
    """
    through = inplace
    while isinstance(target, (ast.Subscript, ast.Starred)):
        target = target.value
        through = True
    root = _self_root(target)
    if root is not None:
        return root
    if isinstance(target, ast.Name) and through:
        return aliases.get(target.id)
    return None


def _expr_names(node: ast.expr) -> set[str]:
    """All Name ids and Attribute attrs appearing in an expression."""
    names: set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
    return names


def _local_types_of(decl: FunctionDecl) -> dict[str, str]:
    """Parameter/local annotations (class names only) for one function."""
    types: dict[str, str] = {}
    args = decl.node.args  # type: ignore[attr-defined]
    for arg in args.posonlyargs + args.args + args.kwonlyargs:
        annotated = annotation_class(arg.annotation)
        if annotated:
            types[arg.arg] = annotated
    for node in ast.walk(decl.node):
        if isinstance(node, ast.AnnAssign) \
                and isinstance(node.target, ast.Name):
            annotated = annotation_class(node.annotation)
            if annotated:
                types.setdefault(node.target.id, annotated)
    return types


def direct_effects(decl: FunctionDecl, graph: CallGraph) -> EffectSummary:
    """The effects one function performs in its own body."""
    func = decl.node
    aliases = _self_alias_map(func)
    local_types = _local_types_of(decl)
    writes: set[str] = set()
    array_calls: set[str] = set()
    rng_draws: set[str] = set()
    stream_handles: set[str] = set()
    cache_reads: set[str] = set()
    epoch_bump = False
    store_targets: set[int] = set()

    for node in ast.walk(func):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                for child in ast.walk(target):
                    store_targets.add(id(child))
                root = _store_root(target, aliases,
                                   inplace=isinstance(node, ast.AugAssign))
                if root is None:
                    continue
                if root in EPOCH_FIELDS:
                    epoch_bump = True
                # __init__ constructs state; it mutates nothing live.
                if decl.name != "__init__":
                    writes.add(root)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                root = _store_root(target, aliases)
                if root is not None and decl.name != "__init__":
                    writes.add(root)
        elif isinstance(node, ast.Call):
            callee = node.func
            if not isinstance(callee, ast.Attribute):
                continue
            method = callee.attr
            receiver = callee.value
            if method in BUMP_CALLS:
                epoch_bump = True
            if method in ARRAY_STATE_CALLS \
                    and "array" in _expr_names(receiver):
                array_calls.add(method)
            if method in MUTATOR_METHODS:
                root = _store_root(receiver, aliases, inplace=True)
                if root is not None and decl.name != "__init__":
                    writes.add(root)
            if method == "stream" and node.args \
                    and is_rng_receiver(receiver, decl, graph, local_types):
                stream_handles.add(stream_name_of(node.args[0]))
            if method in RNG_DRAW_METHODS and node.args \
                    and is_rng_receiver(receiver, decl, graph, local_types):
                rng_draws.add(stream_name_of(node.args[0]))

    for node in ast.walk(func):
        if isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, ast.Load) \
                and node.attr in CACHE_FIELDS \
                and id(node) not in store_targets \
                and _self_root(node) == node.attr:
            cache_reads.add(node.attr)

    # A pure cache *write* is not a read: drop fields only ever stored.
    return EffectSummary(
        writes=frozenset(writes),
        array_calls=frozenset(array_calls),
        rng_draws=frozenset(rng_draws),
        stream_handles=frozenset(stream_handles),
        cache_reads=frozenset(cache_reads),
        epoch_bump=epoch_bump,
    )


def propagate(graph: CallGraph,
              direct: dict[str, EffectSummary]) -> dict[str, EffectSummary]:
    """Fixpoint of summary propagation over the call graph.

    Worklist over reverse edges: when a callee's summary grows, its
    callers are revisited.  Terminates because the lattice is finite and
    join-only.
    """
    transitive = dict(direct)
    worklist = list(graph.functions)
    pending = set(worklist)
    while worklist:
        qual = worklist.pop()
        pending.discard(qual)
        summary = direct.get(qual, EffectSummary.EMPTY)
        for edge in graph.edges_from.get(qual, ()):
            summary = summary.union(
                transitive.get(edge.callee, EffectSummary.EMPTY))
        if summary != transitive.get(qual):
            transitive[qual] = summary
            for edge in graph.edges_to.get(qual, ()):
                if edge.caller not in pending:
                    pending.add(edge.caller)
                    worklist.append(edge.caller)
    return transitive


@dataclass
class ProjectAnalysis:
    """Everything the interprocedural rules need, built once per run."""

    graph: CallGraph
    direct: dict[str, EffectSummary]
    transitive: dict[str, EffectSummary]
    #: path -> {line -> allow() tokens} for call-site suppression checks.
    suppressions: dict[str, dict[int, frozenset[str]]] = field(
        default_factory=dict)

    @classmethod
    def build(cls, parsed: Iterable[tuple[str, str, ast.Module]],
              ) -> "ProjectAnalysis":
        """Build from ``(path, source, tree)`` triples."""
        from repro.checks.core import collect_suppressions
        triples = list(parsed)
        graph = CallGraph.build((path, tree) for path, _src, tree in triples)
        direct = {qual: direct_effects(decl, graph)
                  for qual, decl in graph.functions.items()}
        transitive = propagate(graph, direct)
        suppressions = {path: collect_suppressions(source)
                        for path, source, _tree in triples}
        return cls(graph=graph, direct=direct, transitive=transitive,
                   suppressions=suppressions)

    def edge_suppressed(self, edge_path: str, edge_line: int,
                        rule_id: str, rule_name: str) -> bool:
        """Whether a call site carries ``# repro: allow(<rule>)``.

        A suppressed call edge vouches for the callee *in this context*:
        flow rules skip the edge but still follow other paths to the
        same callee.
        """
        per_file = self.suppressions.get(edge_path, {})
        for line in (edge_line, edge_line - 1):
            tokens = per_file.get(line)
            if tokens and ("*" in tokens or rule_id in tokens
                           or rule_name in tokens):
                return True
        return False

    def functions_in(self, path: str) -> list[FunctionDecl]:
        """Declarations living in one file, in line order."""
        return sorted((decl for decl in self.graph.functions.values()
                       if decl.path == path), key=lambda d: d.lineno)
