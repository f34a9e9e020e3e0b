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


class StreamingRAIDScheduler(CycleScheduler):
    """Full parity group per stream per cycle; k = k' = C - 1.  The
    base :meth:`~CycleScheduler.plan_reads` is this scheme's planner."""

    __slots__ = ()
