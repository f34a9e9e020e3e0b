"""The Staggered-group scheduler (Section 2, Figure 4).

Identical data layout and failure behaviour to Streaming RAID; the only
change is *when* reads happen.  Cycles are one-track long (``k' = 1``) and
each stream reads its whole next parity group once every ``C - 1`` cycles,
in the read phase it was assigned at admission.  Because streams' group
reads are spread across phases, their buffer peaks are out of phase —
Figure 4's roughly-half memory saving — at a small cost in disk-bandwidth
efficiency (the cycle is shorter, so the per-cycle seek amortises over
fewer reads; "the Staggered group scheme in effect uses k = 1").
"""

from __future__ import annotations

import numpy as np

from repro.sched.base import CycleScheduler, GateParams
from repro.sched.plan import PlannedRead
from repro.server.stream import Stream


class StaggeredGroupScheduler(CycleScheduler):
    """Group reads staggered over C - 1 phases; one track delivered/cycle
    (times the stream's rate for fast objects)."""

    __slots__ = ()

    def _in_phase(self, stream: Stream, cycle: int) -> bool:
        return cycle % self.config.stripe_width == stream.phase

    def _ff_gate_params(self, phase: np.ndarray, rate: np.ndarray,
                        admitted: np.ndarray) -> GateParams:
        """Fast-forward gate: a row reads only in its assigned phase."""
        return 0, 0, self.config.stripe_width, phase

    def plan_reads(self, cycle: int) -> list[PlannedRead]:
        """Group reads for the streams whose phase matches this cycle."""
        plans: list[PlannedRead] = []
        # Live-index walk: no per-cycle snapshot list (churn path).
        for stream in self._live.values():
            if not stream.is_active:
                continue
            if not self._in_phase(stream, cycle):
                continue
            # A rate-r stream fetches r groups per phase visit.
            for _ in range(stream.rate):
                if not stream.reads_remaining:
                    break
                self._plan_group_read(stream, plans, include_parity=True)
        return plans
