"""The Non-clustered scheduler (Section 3, Figures 5–7).

Normal mode reads only what the next cycle will deliver: one track per
stream per cycle (``k = k' = 1``) — minimal buffering, at the price of a
*transition* when a disk fails, because blocks are delivered before their
parity group is fully read (Observation 2 is deliberately violated).

Reads are paced by the delivery schedule: a stream admitted in cycle ``a``
naturally reads track ``t`` in cycle ``a + t`` and delivers it one cycle
later.  When a recovery burst fetches tracks early, the stream then idles
until its natural schedule catches up, so bursts do not ripple collisions
into healthy clusters.

On a data-disk failure the affected cluster borrows degraded-mode buffering
from the shared pool (Section 3's "buffer servers") and recovers under one
of two protocols:

* **EAGER** (Figure 6): streams *starting* a parity group on the degraded
  cluster read the entire group plus parity at once (group-at-a-time, as
  Streaming RAID would).  Moved-forward reads take recovery priority and
  may displace other streams' normal reads when slots are full; displaced
  tracks are lost.
* **LAZY** (Figure 7): reads stay on their natural schedule; only at the
  cycle where the *failed* block would have been read are the remaining
  blocks and the parity fetched together, and the missing block is rebuilt
  from a running XOR of every member seen since the group began.  Fewer
  tracks are displaced than under EAGER.

Streams caught *mid-group* by the failure cannot be helped: members
delivered before the failure are gone, so their failed block is lost
(Figures 6–7's W2/Y2) and they simply skip it.  Once the transition
completes, delivery follows the original schedule with no further hiccups
until the disk is repaired.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.buffers.pool import BufferPool
from repro.errors import BufferExhausted
from repro.sched.base import CycleScheduler
from repro.sched.plan import PlannedRead, ReadKind, ReadPurpose
from repro.server.metrics import CycleReport, HiccupCause
from repro.server.stream import Stream


class TransitionProtocol(enum.Enum):
    """How a cluster shifts into degraded mode."""

    EAGER = "eager"  # Figure 6: whole group at once, from the group start
    LAZY = "lazy"    # Figure 7: delay reads until needed, running XOR


@dataclass(slots=True)
class _Accumulator:
    """Running XOR for one (stream, group) reconstruction (LAZY mode)."""

    payload: bytes
    needed: set[object]                      # track indices plus "parity"
    folded: set[object] = field(default_factory=set)
    target_track: int = -1

    @property
    def complete(self) -> bool:
        """True once every needed source has been folded in."""
        return self.needed == self.folded


class NonClusteredScheduler(CycleScheduler):
    """One track per stream per cycle, with failure-transition protocols."""

    #: The engine reads a track a position, with no failure overlay
    #: (:func:`repro.sched.epoch.flat_tables`).
    _ff_per_track = True

    __slots__ = ("protocol", "pool", "_completed_reconstructions",
                 "_reconstructions_credited", "_degraded", "_unprotected",
                 "_accumulators")

    def __init__(self, *args: Any,
                 protocol: TransitionProtocol = TransitionProtocol.LAZY,
                 pool: Optional[BufferPool] = None,
                 **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.protocol = protocol
        self.pool = pool
        self._completed_reconstructions = 0
        self._reconstructions_credited = 0
        #: cluster -> set of failed *data-disk* offsets within the cluster.
        self._degraded: dict[int, set[int]] = {}
        #: clusters that wanted a pool lease and were refused.
        self._unprotected: set[int] = set()
        self._accumulators: dict[tuple[int, int], _Accumulator] = {}

    # -- failure bookkeeping ---------------------------------------------------

    def on_disk_failure(self, disk_id: int) -> None:
        """Mark the cluster degraded, lease pool buffers, start transition."""
        cluster = self.layout.cluster_of(disk_id)
        if self.layout.is_parity_disk(disk_id):
            # A parity-disk failure costs nothing in normal mode: there is
            # nothing to reconstruct unless a data disk also fails, which
            # would be catastrophic regardless.
            return
        data_disks = self.layout.cluster_disks(cluster)[:-1]
        offset = data_disks.index(disk_id)
        self._degraded.setdefault(cluster, set()).add(offset)
        if self.pool is not None:
            try:
                self.pool.acquire(cluster)
            except BufferExhausted:
                self._unprotected.add(cluster)
        self._begin_transition(cluster)

    def on_disk_repair(self, disk_id: int) -> None:
        """Clear the degraded state and return the pool lease."""
        cluster = self.layout.cluster_of(disk_id)
        if self.layout.is_parity_disk(disk_id):
            return
        data_disks = self.layout.cluster_disks(cluster)[:-1]
        offset = data_disks.index(disk_id)
        failed = self._degraded.get(cluster)
        if failed is not None:
            failed.discard(offset)
            if not failed:
                del self._degraded[cluster]
                self._unprotected.discard(cluster)
                if self.pool is not None:
                    self.pool.release(cluster)

    def _begin_transition(self, cluster: int) -> None:
        """At failure time, account for what the in-flight groups lose.

        A stream mid-way through a group on the failed cluster has already
        delivered (or is about to deliver) its early members, so an unread
        block on the failed disk can never be rebuilt — the paper's W2/Y2
        losses.  Streams exactly at a group boundary can still be saved;
        LAZY opens their running XOR immediately.
        """
        for stream in self.active_streams:
            state = self._group_state(stream)
            if state is None:
                continue
            group, group_cluster, tracks, failed_offsets, next_offset = state
            if group_cluster != cluster or not failed_offsets:
                continue
            recoverable = (len(failed_offsets) == 1 and next_offset == 0
                           and cluster not in self._unprotected
                           and self._parity_available(stream, group))
            cause = (HiccupCause.BUFFER_EXHAUSTED
                     if cluster in self._unprotected
                     else HiccupCause.DISK_FAILURE)
            for offset in failed_offsets:
                if offset >= len(tracks):
                    continue
                track = tracks[offset]
                if track >= stream.next_read_track and not recoverable:
                    self._mark_lost(stream.stream_id, track, cause)
            if recoverable and self.protocol is TransitionProtocol.LAZY:
                self._open_accumulator(stream, group, tracks,
                                       failed_offsets[0])

    def _capacity_penalty(self) -> int:
        """Pool pressure: unprotected degraded clusters cost capacity.

        A degraded cluster that could not lease buffer servers from the
        shared pool serves its streams with unrecoverable losses; charging
        that cluster's share of the stream bound lets the front door shed
        or reject instead of admitting streams into a hiccup storm.
        """
        if not self._unprotected:
            return 0
        cluster_share = max(
            1, self.admission_limit // max(1, self.layout.num_clusters))
        return len(self._unprotected) * cluster_share

    # -- planning ------------------------------------------------------------------

    def _group_state(self, stream: Stream,
                     ) -> Optional[tuple[int, int, list[int],
                                         list[int], int]]:
        """Current reading group of a stream, or None when done reading."""
        if not stream.reads_remaining:
            return None
        name = stream.object.name
        group, next_offset = divmod(stream.next_read_track, self._stripe)
        tracks = self.layout.group_tracks(name, group)
        cluster = self.layout.group_cluster(name, group)
        failed_offsets = sorted(self._degraded.get(cluster, ()))
        return group, cluster, tracks, failed_offsets, next_offset

    def _schedule_target(self, stream: Stream, cycle: int) -> int:
        """Tracks the delivery schedule wants read by the end of ``cycle``.

        A rate-r stream reads r tracks per cycle; a recovery burst that
        fetched ahead of this target leaves the stream idle until the
        schedule catches up.
        """
        return (cycle - stream.admitted_cycle + 1) * stream.rate

    def plan_reads(self, cycle: int) -> list[PlannedRead]:
        """Rate-paced track reads, with degraded-mode bursts as needed."""
        plans: list[PlannedRead] = []
        # Live-index walk: no per-cycle snapshot list (churn path).
        for stream in self._live.values():
            if not stream.is_active:
                continue
            target = self._schedule_target(stream, cycle)
            for _ in range(stream.rate):
                if not stream.reads_remaining:
                    break
                if stream.next_read_track >= target:
                    break  # a burst put this stream ahead of schedule
                self._plan_one_quantum(stream, plans)
        return plans

    def _plan_one_quantum(self, stream: Stream,
                          plans: list[PlannedRead]) -> None:
        """One planning action: a track read, a skip, or a burst."""
        if not self._degraded:
            # No cluster is degraded: every stream is on its natural
            # one-track schedule (bursts and skips only exist in degraded
            # mode), so skip the group-state resolution entirely.
            if stream.reads_remaining:
                self._plan_one_track(stream, plans)
            return
        state = self._group_state(stream)
        if state is None:
            return
        group, cluster, tracks, failed_offsets, next_offset = state
        # Failed offsets beyond a short tail group do not affect it.
        failed_offsets = [o for o in failed_offsets if o < len(tracks)]
        recoverable = (len(failed_offsets) == 1
                       and cluster not in self._unprotected
                       and self._parity_available(stream, group))
        if not failed_offsets:
            self._plan_one_track(stream, plans)
        elif self.protocol is TransitionProtocol.EAGER and recoverable \
                and next_offset == 0:
            self._plan_eager_burst(stream, group, tracks,
                                   failed_offsets[0], plans)
        else:
            if self.protocol is TransitionProtocol.LAZY and recoverable \
                    and next_offset == 0:
                self._open_accumulator(stream, group, tracks,
                                       failed_offsets[0])
            if self.protocol is TransitionProtocol.LAZY \
                    and (stream.stream_id, group) in self._accumulators \
                    and next_offset == failed_offsets[0]:
                self._plan_lazy_burst(stream, group, tracks,
                                      failed_offsets[0], plans)
            else:
                self._plan_with_skips(stream, group, tracks,
                                      failed_offsets, cluster, plans)

    def _parity_available(self, stream: Stream, group: int) -> bool:
        address = self.layout.parity_address(stream.object.name, group)
        return not self.array[address.disk_id].is_failed

    def _data_read(self, stream: Stream, track: int,
                   purpose: ReadPurpose) -> PlannedRead:
        address = self.layout.data_address(stream.object.name, track)
        return PlannedRead(
            disk_id=address.disk_id,
            position=address.position,
            stream_id=stream.stream_id,
            object_name=stream.object.name,
            kind=ReadKind.DATA,
            index=track,
            purpose=purpose,
        )

    def _parity_read(self, stream: Stream, group: int) -> PlannedRead:
        address = self.layout.parity_address(stream.object.name, group)
        return PlannedRead(
            disk_id=address.disk_id,
            position=address.position,
            stream_id=stream.stream_id,
            object_name=stream.object.name,
            kind=ReadKind.PARITY,
            index=group,
            purpose=ReadPurpose.RECOVERY,
        )

    def _plan_one_track(self, stream: Stream, plans: list[PlannedRead],
                        ) -> None:
        """Healthy cluster: fetch exactly the next track."""
        plans.append(self._data_read(stream, stream.next_read_track,
                                     ReadPurpose.NORMAL))
        stream.next_read_track += 1

    def _plan_with_skips(self, stream: Stream, group: int,
                         tracks: list[int], failed_offsets: list[int],
                         cluster: int, plans: list[PlannedRead]) -> None:
        """Degraded cluster, unrecoverable (or mid-group) stream: natural
        pace, skipping the failed offsets."""
        offset = stream.next_read_track - tracks[0]
        if offset in failed_offsets:
            cause = (HiccupCause.BUFFER_EXHAUSTED
                     if cluster in self._unprotected
                     else HiccupCause.DISK_FAILURE)
            self._mark_lost(stream.stream_id, stream.next_read_track, cause)
            stream.next_read_track += 1
            return  # the failed disk's cycle passes idle for this stream
        plans.append(self._data_read(stream, stream.next_read_track,
                                     ReadPurpose.NORMAL))
        stream.next_read_track += 1

    def _plan_eager_burst(self, stream: Stream, group: int,
                          tracks: list[int], failed_offset: int,
                          plans: list[PlannedRead]) -> None:
        """Figure 6: read the whole group (and parity) at the group start."""
        for offset, track in enumerate(tracks):
            if offset == failed_offset:
                continue
            purpose = (ReadPurpose.NORMAL if offset == 0
                       else ReadPurpose.RECOVERY)
            plans.append(self._data_read(stream, track, purpose))
        if failed_offset < len(tracks):
            plans.append(self._parity_read(stream, group))
        stream.next_read_track = tracks[-1] + 1

    def _plan_lazy_burst(self, stream: Stream, group: int,
                         tracks: list[int], failed_offset: int,
                         plans: list[PlannedRead]) -> None:
        """Figure 7: at the failed block's own cycle, fetch the remaining
        members and the parity together."""
        for offset in range(failed_offset + 1, len(tracks)):
            plans.append(self._data_read(stream, tracks[offset],
                                         ReadPurpose.RECOVERY))
        plans.append(self._parity_read(stream, group))
        stream.next_read_track = tracks[-1] + 1

    # -- accumulators -----------------------------------------------------------------

    def _open_accumulator(self, stream: Stream, group: int,
                          tracks: list[int], failed_offset: int) -> None:
        if failed_offset >= len(tracks):
            return  # the tail group is too short to contain the failure
        if tracks[failed_offset] < stream.next_read_track:
            return  # the failed block was read before the failure
        key = (stream.stream_id, group)
        if key in self._accumulators:
            return
        needed: set[object] = {tracks[o] for o in range(len(tracks))
                               if o != failed_offset}
        needed.add("parity")
        self._accumulators[key] = _Accumulator(
            payload=self.codec.zero_block(),
            needed=needed,
            target_track=tracks[failed_offset],
        )
        stream.accumulators[group] = self._accumulators[key].payload

    def _fold(self, stream: Stream, group: int, source: object,
              payload: bytes) -> None:
        key = (stream.stream_id, group)
        acc = self._accumulators.get(key)
        if acc is None or source in acc.folded or source not in acc.needed:
            return
        acc.payload = self.codec.accumulate(acc.payload, payload)
        acc.folded.add(source)
        stream.accumulators[group] = acc.payload
        if acc.complete:
            stream.store_track(acc.target_track, acc.payload)
            self._lost_causes.pop((stream.stream_id, acc.target_track), None)
            stream.lost_tracks.discard(acc.target_track)
            stream.reconstructed_tracks += 1
            self._completed_reconstructions += 1
            del self._accumulators[key]
            stream.accumulators.pop(group, None)

    def _delivery_hook_needed(self) -> bool:
        return bool(self._accumulators)

    def _on_read_executed(self, stream: Stream, plan: PlannedRead,
                          payload: bytes) -> None:
        if not self._accumulators:
            return
        if plan.kind is ReadKind.PARITY:
            self._fold(stream, plan.index, "parity", payload)
        else:
            self._fold(stream, plan.index // self._stripe, plan.index,
                       payload)

    def _on_track_delivered(self, stream: Stream, track: int,
                            payload: bytes) -> None:
        if not self._accumulators:
            return
        self._fold(stream, track // self._stripe, track, payload)

    # -- drop handling ----------------------------------------------------------------

    def _handle_dropped(self, dropped: list[PlannedRead],
                        report: CycleReport) -> None:
        for plan in dropped:
            if plan.kind is ReadKind.DATA:
                cause = (HiccupCause.TRANSITION if self._degraded
                         else HiccupCause.SLOT_OVERFLOW)
                self._mark_lost(plan.stream_id, plan.index, cause)
            else:
                # A dropped parity read dooms the reconstruction.
                stream = self.streams.get(plan.stream_id)
                if stream is None:
                    continue
                key = (plan.stream_id, plan.index)
                acc = self._accumulators.pop(key, None)
                if acc is not None:
                    stream.accumulators.pop(plan.index, None)
                    self._mark_lost(plan.stream_id, acc.target_track,
                                    HiccupCause.DISK_FAILURE)

    def _extra_buffer_tracks(self) -> int:
        return self.pool.tracks_in_use if self.pool is not None else 0

    # -- reconstruction accounting ----------------------------------------------------

    def _finalise(self, report: CycleReport) -> None:
        """Credit accumulator completions since the last report.

        Must happen *before* :meth:`SimulationReport.record` (not after,
        as a ``run_cycle`` wrapper would) so the recorded cycle carries
        the credited count.
        """
        super()._finalise(report)
        report.reconstructions += (self._completed_reconstructions
                                   - self._reconstructions_credited)
        self._reconstructions_credited = self._completed_reconstructions

    # -- fast-forward -----------------------------------------------------------------

    def _ff_gate_params(self, stream: Stream) -> tuple[int, int, int, int]:
        """Fast-forward gate: pace reads on the natural delivery schedule."""
        return stream.rate, stream.admitted_cycle, 1, 0

    def _fast_forward_ready(self) -> bool:
        """Veto while a cluster is degraded: the EAGER bursts and LAZY
        running XORs are a bounded transition, run scalar.  A failed
        parity disk degrades no cluster (:meth:`on_disk_failure`), so
        that state stays on the engine."""
        return not self._degraded

    def _ff_stream_ok(self, stream: Stream) -> bool:
        """No running XOR is left for this stream.  ``drop_parity`` and
        ``complete`` clear only the stream's side, so the scheduler's
        accumulators are checked too."""
        sid = stream.stream_id
        return not stream.accumulators and not any(
            key[0] == sid for key in self._accumulators)
