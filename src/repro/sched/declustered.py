"""The parity-declustered scheduler (extension; arXiv:1209.6152).

Normal mode is Streaming-RAID-shaped — each stream reads its whole next
parity group every cycle — but on the declustered layout no disk is
dedicated to parity, so all ``D`` disks serve data and nothing idles in
reserve.  A group whose member sits on a failed disk reads its parity
block (which lives on an ordinary data-serving survivor) and the missing
block is reconstructed before its delivery deadline, exactly like SR's
degraded mode.

The scheme's point is rebuild mode: because every disk pair co-occurs in
(nearly) the same number of parity groups, the failed disk's
reconstruction reads spread round-robin over *all* ``D - 1`` survivors
instead of one cluster's ``C - 1``, so the rebuild window shrinks by the
declustering ratio ``alpha = (C - 1) / (D - 1)``.  The scheduler opts
the :class:`~repro.sched.rebuild.OnlineRebuilder` into its distributed
ordering, which packs source-disjoint blocks into each cycle.

The price is admission capacity while degraded: the parity reads that SR
sends to a reserved parity disk land here on data-serving survivors, so
each failure charges ``alpha * G`` slots farm-wide (``G`` = group reads
in flight per cycle, i.e. the admission bound) against the limit.
"""

from __future__ import annotations

from repro.sched.base import CycleScheduler


class DeclusteredParityScheduler(CycleScheduler):
    """Whole-group reads on the declustered layout (the base
    :meth:`~CycleScheduler.plan_reads`); k = k' = C - 1."""

    __slots__ = ()

    #: Rebuilds on this scheme order their pending blocks so consecutive
    #: blocks draw sources from disjoint survivor sets (see
    #: :meth:`OnlineRebuilder._distributed_order`).
    distributed_rebuild = True

    def _capacity_penalty(self) -> int:
        """Degraded reads steal ``alpha * G`` slots farm-wide per failure.

        SR's degraded parity reads go to a dedicated parity disk whose
        bandwidth was reserved for exactly that; here they land on
        data-serving survivors.  Every failed disk turns ~``C / D`` of
        all group reads degraded, each costing one extra read spread
        over the farm — ``alpha`` of the in-flight group-read budget —
        so admission gives that share back per concurrent failure.
        """
        failed = len(self.array.failed_ids)
        if failed == 0:
            return 0
        stripe = self.config.parity_group_size - 1
        survivors = max(1, self.layout.num_disks - 1)
        # ceil(limit * alpha) in integer arithmetic.
        share = -(-self.admission_limit * stripe // survivors)
        return failed * max(1, share)
