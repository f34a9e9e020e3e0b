"""The cluster front door: dispatch requests to shards holding the object.

The router owns every placement-aware decision, and it runs entirely in
the parent process at routing barriers — that is the cluster's
determinism argument in one sentence.  Shard feedback (active stream
counts, fault-aware admission limits) arrives only at barriers, in
session order, carrying identical values for any worker count; since
routing is a pure function of that feedback plus the placement, the
dispatched batches — and therefore every downstream shard metric — are
bit-identical for ``workers=1`` and ``workers=N``.

Between barriers the router *models* shard load: each dispatched stream
occupies its shard until its estimated end cycle (one track per cycle,
the paper's delivery model), tracked in a per-shard min-heap of end
cycles.  At each barrier :meth:`ClusterRouter.observe` rebases the model
onto the shards' actual active counts and refreshes their effective
limits, so degraded shards (failed disks, fail-slow drives) shrink their
headroom and the least-loaded-copy rule steers replicas' traffic away —
cluster-level degraded-mode admission without any cross-shard coupling.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Sequence

from repro.cluster.placement import ShardPlacement
from repro.media.catalog import Catalog


class ClusterRouter:
    """Least-loaded-copy dispatch over a fixed placement."""

    def __init__(self, placement: ShardPlacement, catalog: Catalog) -> None:
        self.placement = placement
        self._durations = {obj.name: obj.num_tracks for obj in catalog}
        #: Modelled in-flight streams per shard: min-heaps of end cycles.
        self._ends: list[list[int]] = [[] for _ in range(placement.shards)]
        #: Barrier correction: actual minus modelled load, per shard.
        self._bias = [0] * placement.shards
        #: Fault-aware admission limits, refreshed at each barrier
        #: (None until the first observation: treat headroom as equal).
        self._limits: list[int] | None = None
        self.routed = [0] * placement.shards

    def _load(self, shard: int, cycle: int) -> int:
        """Modelled active streams on ``shard`` at ``cycle``."""
        ends = self._ends[shard]
        while ends and ends[0] <= cycle:
            heapq.heappop(ends)
        return len(ends) + self._bias[shard]

    def _headroom(self, shard: int, cycle: int) -> int:
        limit = self._limits[shard] if self._limits is not None else 0
        return limit - self._load(shard, cycle)

    def route(self, cycle: int, name: str) -> int:
        """Pick the least-loaded shard holding ``name`` and book the load.

        A single-copy title goes straight to its holder, whose heap is
        drained as the headroom scan would drain it, so the model's state
        is the same either way."""
        holders = self.placement.holders(name)
        if len(holders) == 1:
            best = holders[0]
            self._load(best, cycle)
        else:
            best = max(holders, key=lambda s: (self._headroom(s, cycle), -s))
        heapq.heappush(self._ends[best],
                       cycle + self._durations[name])
        self.routed[best] += 1
        return best

    def route_window(self, items: Iterable[tuple[int, str]],
                     ) -> list[dict[int, list[str]]]:
        """Dispatch one window of ``(cycle, name)`` arrivals.

        Returns one batch dict per shard — absolute arrival cycle to the
        names routed there, in arrival order — ready to ship to
        :func:`repro.cluster.shard.run_shard_window`.
        """
        batches: list[dict[int, list[str]]] = [
            {} for _ in range(self.placement.shards)]
        for cycle, name in items:
            shard = self.route(cycle, name)
            batches[shard].setdefault(cycle, []).append(name)
        return batches

    def observe(self, cycle: int, active: Sequence[int],
                limits: Sequence[int]) -> None:
        """Rebase the load model on barrier feedback from every shard.

        ``active``/``limits`` are per-shard actual stream counts and
        fault-aware admission limits at barrier ``cycle``, in shard
        order.  The modelled end-cycle heaps are kept (they still
        predict *when* load drains); the bias term absorbs everything
        the model missed — rejected admissions, shed streams, early
        completions.
        """
        if len(active) != self.placement.shards \
                or len(limits) != self.placement.shards:
            raise ValueError(
                f"expected feedback for {self.placement.shards} shards, "
                f"got {len(active)} active / {len(limits)} limits")
        for shard in range(self.placement.shards):
            self._bias[shard] = active[shard] - (self._load(shard, cycle)
                                                 - self._bias[shard])
        self._limits = list(limits)
