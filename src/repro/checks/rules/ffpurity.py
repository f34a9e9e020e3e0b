"""R8 — ff-purity: fast-forward eligibility probes must be effect-free.

The fast-forward engine decides whether a batched epoch is legal by
*probing* scheduler state: ``_ff_classify``, the scheme veto it
dispatches to (``_fast_forward_ready``), the per-stream hook the
engine's entry walk calls (``_ff_stream_ok``) and the gate hook its row
writer calls on whole columns (``_ff_gate_params``).
Those probes run between scalar cycles and may run any number of times
(eligibility is re-checked per entry), so the fast and scalar paths
only stay bit-identical if probing *changes nothing*: no scheduler /
layout / disk state writes, no fault-domain transitions, no epoch
bumps, and no RNG draws (a draw advances a stream other replays would
not see).

This is the flow rule the per-file R3 cannot express: a helper three
calls deep that mutates state is flagged wherever it is defined, with
the probe-to-helper path in the message.  Findings anchor at the
*offending function*, so a justified ``# repro: allow(R8)`` on its
``def`` line clears every path to it; an allow on a *call site* clears
only that edge (other paths to the callee still count).

Writes to ``report`` are exempt: the disengagement tally is diagnostic,
lives outside the fingerprinted rows, and is exactly what probes are
expected to touch.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.checks.core import FileContext, Finding, Rule, in_project_source
from repro.checks.effects import EffectSummary, ProjectAnalysis

#: Eligibility probes: the roots of the purity requirement.
PROBE_NAMES = frozenset({
    "_ff_classify", "_fast_forward_ready", "_ff_stream_ok",
    "_ff_gate_params",
})

#: Instance fields probes may legitimately touch (diagnostics only).
EXEMPT_WRITES = frozenset({"report"})


class FfPurityRule(Rule):
    """R8: functions reachable from ff eligibility probes stay pure."""

    rule_id = "R8"
    name = "ff-purity"
    description = ("functions transitively reachable from fast-forward "
                   "eligibility probes (_ff_classify and friends) must "
                   "not mutate scheduler/layout/disk state or draw RNG")

    def applies_to(self, path: str) -> bool:
        return in_project_source(path)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        project = ctx.project
        if not isinstance(project, ProjectAnalysis):
            return
        reachable = self._reachable_with_paths(project)
        local = {decl.qualname for decl in project.functions_in(ctx.path)}
        for qual in sorted(reachable):
            if qual not in local:
                continue
            decl = project.graph.functions[qual]
            effects = self._impure_effects(
                project.direct.get(qual, EffectSummary.EMPTY))
            if not effects:
                continue
            via = reachable[qual]
            origin = f" (reachable via {via})" if via else ""
            yield Finding(
                rule_id=self.rule_id, rule_name=self.name, path=ctx.path,
                line=decl.lineno, col=decl.node.col_offset,
                message=(f"'{decl.name}' {effects} but is an eligibility "
                         f"probe or reachable from one{origin}; probes "
                         "must be effect-free so fast-forward entry "
                         "checks cannot perturb the simulation"),
            )

    @staticmethod
    def _impure_effects(summary: EffectSummary) -> Optional[str]:
        """Human description of a summary's impure part, or None."""
        parts: list[str] = []
        writes = sorted(summary.writes - EXEMPT_WRITES)
        if writes:
            parts.append(f"mutates {', '.join(writes)}")
        if summary.array_calls:
            parts.append("drives fault-domain transitions "
                         f"({', '.join(sorted(summary.array_calls))})")
        if summary.epoch_bump:
            parts.append("bumps an epoch")
        if summary.rng_draws:
            parts.append("draws from RNG streams "
                         f"({', '.join(sorted(summary.rng_draws))})")
        return " and ".join(parts) if parts else None

    def _reachable_with_paths(self, project: ProjectAnalysis,
                              ) -> dict[str, str]:
        """Qualnames reachable from any probe -> example path string.

        BFS from every probe-named function; edges whose call site
        carries ``allow(R8)`` are skipped (call-site suppression).
        Probes themselves map to an empty path.
        """
        graph = project.graph
        reachable: dict[str, str] = {}
        frontier: list[str] = []
        parent: dict[str, tuple[str, str]] = {}
        for qual, decl in graph.functions.items():
            if decl.name in PROBE_NAMES:
                reachable[qual] = ""
                frontier.append(qual)
        while frontier:
            current = frontier.pop(0)
            for edge in graph.edges_from.get(current, ()):
                if edge.callee in reachable:
                    continue
                if project.edge_suppressed(edge.path, edge.line,
                                           self.rule_id, self.name):
                    continue
                parent[edge.callee] = (current, edge.caller)
                reachable[edge.callee] = self._path_string(
                    edge.callee, parent, graph)
                frontier.append(edge.callee)
        return reachable

    @staticmethod
    def _path_string(qual: str, parent: dict[str, tuple[str, str]],
                     graph: object) -> str:
        chain = [qual]
        current = qual
        while current in parent and len(chain) < 6:
            current = parent[current][0]
            chain.append(current)
        names = [q.rsplit(".", 1)[-1] for q in reversed(chain)]
        return " -> ".join(names)
