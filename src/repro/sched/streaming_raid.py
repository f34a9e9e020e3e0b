"""The Streaming RAID scheduler (Section 2, Figure 3).

Normal mode: every active stream reads its entire next parity group's data
blocks each cycle and delivers the previous group's ``C - 1`` blocks.  The
parity disks' bandwidth is held in reserve.

Degraded mode: a group with a member on a failed disk additionally reads
its parity block (from the cluster's dedicated parity disk, whose bandwidth
was reserved precisely for this) and the missing block is rebuilt before
its delivery deadline — zero hiccups, per Observation 2.
"""

from __future__ import annotations

from repro.sched.base import CycleScheduler
from repro.sched.plan import PlannedRead


class StreamingRAIDScheduler(CycleScheduler):
    """Full parity group per stream per cycle; k = k' = C - 1."""

    __slots__ = ()

    def plan_reads(self, cycle: int) -> list[PlannedRead]:
        """One full parity-group read per stream rate-unit per cycle."""
        plans: list[PlannedRead] = []
        # Walk the live index directly: planning runs every cycle, and
        # the ``active_streams`` snapshot list is allocation the churn
        # path cannot afford at VoD stream counts.  The index still holds
        # the streams finished since its last prune, hence the skip.
        for stream in self._live.values():
            if not stream.is_active:
                continue
            # A rate-r stream consumes r parity groups per cycle; live
            # streams reduce ``reads_remaining`` to the pointer check.
            for _ in range(stream.rate):
                if stream.next_read_track >= stream.num_tracks:
                    break
                self._plan_group_read(stream, plans, include_parity=True)
        return plans
