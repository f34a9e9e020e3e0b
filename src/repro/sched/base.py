"""The shared cycle engine behind all four scheme schedulers.

Each simulated cycle proceeds in the paper's order (Section 2):

1. **deliver** — every started stream sends its due ``k'`` tracks from its
   buffer to the display station; a missing track is a *hiccup* (the
   delivery clock never waits);
2. **plan** — the concrete scheme decides which track/parity reads to issue
   (:meth:`CycleScheduler.plan_reads`);
3. **resolve** — the slot table arbitrates per-disk capacity; recovery
   reads beat normal reads; losers are dropped;
4. **execute** — surviving reads move payloads from disks into stream
   buffers (data read during cycle *n* is deliverable from cycle *n + 1*);
5. **reconstruct** — groups that now hold parity plus all-but-one data
   block rebuild the missing block on the fly (Observation 2).

Concrete schedulers implement failure-transition behaviour and, where
it is not the default whole-group read, planning; everything else —
buffers, hiccup attribution, payload verification, metrics — lives here
so the four schemes stay comparable.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

if TYPE_CHECKING:
    from repro.faults.injector import FaultSchedule
    from repro.sched.rebuild import OnlineRebuilder

from repro.analysis.streams import data_disk_count
from repro.buffers.tracker import BufferTracker
from repro.disk.drive import DiskArray
from repro.errors import (
    AdmissionError,
    ConfigurationError,
    MediaReadError,
    ReconstructionError,
    SimulationError,
)
from repro.layout.base import DataLayout
from repro.media.objects import MediaObject
from repro.parity.xor import MetaParityCodec, ParityCodec
from repro.sched import epoch
from repro.sched.config import SchedulerConfig
from repro.schemes import Scheme
from repro.sched.plan import PlannedRead, ReadKind, ReadPurpose
from repro.units import mb_to_bytes
from repro.sched.slots import SlotTable
from repro.server.admission import fault_aware_capacity
from repro.server.metrics import (
    CycleReport,
    DataLossEvent,
    HiccupCause,
    HiccupRecord,
    SimulationReport,
)
from repro.server.stream import Stream, StreamStatus


class GroupPlan:
    """The cached read plan for one (object, group) under one epoch.

    Resolves once per failure/placement epoch what `_plan_group_read`
    previously recomputed per stream per cycle: which members are on
    healthy disks (and where), how many are failed, and where the group's
    parity lives (``None`` when the parity disk is down).
    """

    __slots__ = ("healthy", "failed_members", "parity", "next_read_track")

    def __init__(self, healthy: tuple[tuple[int, int, int], ...],
                 failed_members: int,
                 parity: Optional[tuple[int, int]],
                 next_read_track: int) -> None:
        #: ``(disk_id, position, track)`` per member on an operational disk.
        self.healthy = healthy
        self.failed_members = failed_members
        #: ``(disk_id, position)`` of the parity block, or ``None``.
        self.parity = parity
        self.next_read_track = next_read_track


class CycleScheduler:
    """Cycle-synchronous scheduler: the common engine for all schemes."""

    #: Schemes whose layouts spread parity groups over arbitrary disk
    #: subsets opt rebuilds into the distributed (source-disjoint
    #: round-robin) pending order; see ``OnlineRebuilder``.
    distributed_rebuild = False

    #: Whether the epoch engine reads a track a position rather than a
    #: parity group (:func:`repro.sched.epoch.flat_tables`).
    _ff_per_track = False

    __slots__ = (
        "layout", "array", "config", "verify_payloads", "metadata_only",
        "track_bytes", "codec", "slot_table", "report", "tracker",
        "cycle_index", "streams", "_live", "_terminated", "_next_stream_id",
        "_lost_causes", "_last_executed", "_pending_reconstructions",
        "rebuilders", "_stripe", "_plan_cache", "_plan_cache_key",
        "_read_hook_active", "_delivery_hook_active",
        "_base_quota", "admission_limit", "redundant_fault_commands",
        "_known_lost_tracks", "_pending_shed", "_ff_tables", "_ff_tables_key",
        "_holder",
    )

    def __init__(self, layout: DataLayout, array: DiskArray,
                 config: SchedulerConfig,
                 admission_limit: Optional[int] = None,
                 verify_payloads: bool = False) -> None:
        if layout.num_disks != len(array):
            raise ConfigurationError(
                f"layout covers {layout.num_disks} disks, array has {len(array)}"
            )
        if config.params.num_disks != layout.num_disks:
            raise ConfigurationError(
                f"parameters describe D={config.params.num_disks} disks, "
                f"layout has {layout.num_disks}"
            )
        self.layout = layout
        self.array = array
        self.config = config
        self.verify_payloads = verify_payloads
        #: Metadata-only fast path: the array stores occupancy, not bytes.
        self.metadata_only = not array.store_payloads
        if verify_payloads and self.metadata_only:
            raise ConfigurationError(
                "byte-level payload verification needs a payload-storing "
                "array; build with store_payloads=True"
            )
        self.track_bytes = mb_to_bytes(array.spec.track_size_mb)
        self.codec = (MetaParityCodec(self.track_bytes) if self.metadata_only
                      else ParityCodec(self.track_bytes))
        self.slot_table = SlotTable(array, config.slots_per_disk)
        self.report = SimulationReport()
        self.tracker = BufferTracker()
        self.cycle_index = 0
        #: Every stream ever admitted, by id: the full record.
        self.streams: dict[int, Stream] = {}
        #: The live index: the streams of ``streams`` not yet seen
        #: finished, by id.  The per-cycle walks read it, so their cost
        #: follows the live streams, not the run's history; only
        #: :meth:`_prune_live` removes from it.
        self._live: dict[int, Stream] = {}
        #: ``TERMINATED`` streams pruned from the live index so far.
        self._terminated = 0
        self._next_stream_id = 0
        #: (stream_id, track) -> why it will hiccup at delivery time.
        self._lost_causes: dict[tuple[int, int], HiccupCause] = {}
        #: Reads executed during the most recent cycle (for mid-cycle
        #: failure semantics); None once the epoch engine batched that
        #: cycle, whose reads were never materialised.
        self._last_executed: Optional[list[PlannedRead]] = []
        #: Reconstructions performed between cycles (mid-cycle failures
        #: masked by prefetched parity); credited to the next report.
        self._pending_reconstructions = 0
        #: Active on-line rebuilds (rebuild mode), one per failed disk.
        self.rebuilders: list["OnlineRebuilder"] = []
        #: Data blocks per parity group; group arithmetic on the hot path.
        self._stripe = config.stripe_width
        #: Cycle-plan cache: object name -> {group -> GroupPlan}, valid
        #: for one (placement epoch, array state epoch) pair.  Two-level
        #: so a scalar-path lookup indexes by name, then group, without
        #: building a ``(name, group)`` tuple per read.
        self._plan_cache: dict[str, dict[int, GroupPlan]] = {}
        self._plan_cache_key: Optional[tuple[int, int]] = None
        #: The epoch engine's read tables of every placed object
        #: (:func:`repro.sched.epoch.flat_tables`), keyed like the plan
        #: cache.
        self._ff_tables: Optional[tuple] = None
        self._ff_tables_key: Optional[tuple[int, int]] = None
        # Skip per-read/per-track hook dispatch for schemes that keep the
        # base no-op hooks (everything but Non-clustered).
        cls = type(self)
        self._read_hook_active = (
            cls._on_read_executed is not CycleScheduler._on_read_executed)
        self._delivery_hook_active = (
            cls._on_track_delivered is not CycleScheduler._on_track_delivered)
        self._base_quota = (
            cls.deliveries_per_cycle is CycleScheduler.deliveries_per_cycle)
        if admission_limit is None:
            admission_limit = self._slot_based_stream_bound()
        self.admission_limit = admission_limit
        #: Fail/repair commands that found the disk already in the target
        #: state (idempotency: injectors may double-fire).
        self.redundant_fault_commands = 0
        #: object name -> tracks currently unreconstructable (double
        #: failures); maintained by :meth:`_account_data_loss`.
        self._known_lost_tracks: dict[str, set[int]] = {}
        #: Streams shed since the last cycle report (data loss or
        #: degraded-capacity enforcement).
        self._pending_shed = 0
        #: The :class:`Churn` driver holding an epoch open, if any: while
        #: one does, the streams, disk read counters and tracker peaks
        #: lag its row pool, so every call that reads or changes them
        #: raises instead (see :meth:`Churn.refusal`).
        self._holder: Optional[Churn] = None

    def _slot_based_stream_bound(self) -> int:
        """Streams the per-disk slot budget can carry.

        Each stream needs ``k`` track reads per read cycle spread over
        ``D'`` data disks (the staggered scheme's reads amortise to one
        per cycle — Section 2's "in effect uses k = 1").  This is the
        simulator's own capacity constraint, the discrete counterpart of
        equations (8)–(11).
        """
        effective_k = (1 if self.config.scheme is Scheme.STAGGERED_GROUP
                       else self.config.k)
        d_prime = data_disk_count(self.config.params,
                                  self.config.parity_group_size,
                                  self.config.scheme)
        return max(0, int(self.config.slots_per_disk * d_prime
                          // effective_k))

    # -- scheme-specific hooks ------------------------------------------------

    def plan_reads(self, cycle: int) -> list[PlannedRead]:
        """Decide this cycle's reads; may advance stream read pointers.

        The default (SR, PD): one whole parity-group read, parity
        included where a member is down, per stream rate-unit per cycle.
        """
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

    def on_disk_failure(self, disk_id: int) -> None:
        """Scheme reaction to a failure (default: none)."""

    def on_disk_repair(self, disk_id: int) -> None:
        """Scheme reaction to a repair (default: none)."""

    def deliveries_per_cycle(self, stream: Stream) -> int:
        """Tracks a started stream must send per cycle.

        A rate-``r`` stream (an object ``r`` times the base bandwidth)
        consumes ``r`` times the cycle's delivery quantum.
        """
        return self.config.k_prime * stream.rate

    def _on_read_executed(self, stream: Stream, plan: PlannedRead,
                          payload: bytes) -> None:
        """Hook after each executed read (NC folds accumulators here)."""

    def _on_track_delivered(self, stream: Stream, track: int,
                            payload: bytes) -> None:
        """Hook after each delivered track."""

    def _handle_dropped(self, dropped: list[PlannedRead],
                        report: CycleReport) -> None:
        """Default drop policy: a dropped data read is a lost track."""
        for plan in dropped:
            if self.array[plan.disk_id].is_failed:
                raise SimulationError(
                    f"scheduler planned a read on failed disk {plan.disk_id}"
                )
            if plan.kind is ReadKind.DATA:
                self._mark_lost(plan.stream_id, plan.index,
                                HiccupCause.SLOT_OVERFLOW)

    def resolve_plans(self, plans: list[PlannedRead], report: CycleReport,
                      ) -> tuple[list[PlannedRead], list[PlannedRead]]:
        """Arbitrate slots (IB overrides this with the shift-right cascade)."""
        return self.slot_table.resolve(plans)

    # -- stream management ------------------------------------------------------

    @property
    def active_streams(self) -> list[Stream]:
        """Streams currently occupying server resources, by id.

        A walk over the live index, which still holds the streams that
        left service since its last prune: they are skipped here, not
        pruned (see :meth:`_prune_live`).
        """
        if self._holder is not None:
            raise self._holder.refusal("active_streams")
        return [s for s in self._live.values() if s.is_active]

    @property
    def active_load(self) -> int:
        """Capacity units in use: the rate-weighted active stream count."""
        return sum(s.rate for s in self.active_streams)

    def admit(self, obj: MediaObject) -> Stream:
        """Admit a new stream for ``obj`` (AdmissionError if refused).

        Admission is rate-weighted: one MPEG-2 stream on an MPEG-1-cycled
        server consumes three capacity units (Section 1's "or some
        combination of the two").  A one-object :meth:`_admit_many`
        batch; a refusal raises with the reason the batch gives.
        """
        if self._holder is not None:
            raise self._holder.refusal("admit")
        reasons: list[str] = []
        streams, _ = self._admit_many((obj,), self._phase_loads(),
                                      self.effective_admission_limit(),
                                      reasons)
        if reasons:
            raise AdmissionError(reasons[0])
        return streams[0]

    def admit_batch(self, objects: Sequence[MediaObject],
                    ) -> tuple[list[Stream], int]:
        """Admit one cycle's arrivals; returns ``(streams, rejected)``.

        Behaviourally identical to calling :meth:`admit` per object and
        counting :class:`AdmissionError` as a rejection, but the
        rate-weighted phase loads and the fault-aware limit are computed
        once for the whole batch — O(active + arrivals).
        """
        if self._holder is not None:
            raise self._holder.refusal("admit_batch")
        return self._admit_many(objects, self._phase_loads(),
                                self.effective_admission_limit())

    def _phase_loads(self) -> list[int]:
        """Rate-weighted load per read phase over the active streams."""
        width = self.config.stripe_width
        load = [0] * width
        for stream in self._live.values():
            if stream.is_active:
                load[stream.phase % width] += stream.rate
        return load

    def _admit_many(self, objects: Sequence[MediaObject],
                    phase_load: list[int], limit: int,
                    reasons: Optional[list[str]] = None,
                    ) -> tuple[list[Stream], int]:
        """The admission decision, for a batch of arrivals in order.

        Returns ``(streams, rejected)``.  An arrival is refused when its
        object is not on disk, has tracks lost to a multiple-disk
        failure, needs a non-integer multiple of the base rate (only
        those are schedulable on a fixed cycle — the paper's
        MPEG-2-on-an-MPEG-1-server case is exactly 3x), or would take the
        rate-weighted load past ``limit``.  A refusal raises nothing; its
        message is built only for a caller that passes ``reasons``.
        ``phase_load`` is updated in place on each admission, so the
        epoch engine keeps it across batches; its sum *is* the
        rate-weighted active load.
        """
        placed = self.layout.object_names
        lost = self._known_lost_tracks
        unit = self.config.params.object_bandwidth_mb_s
        cycle = self.cycle_index
        registry, live = self.streams, self._live
        next_id = self._next_stream_id
        load = sum(phase_load)
        streams: list[Stream] = []
        for obj in objects:
            name = obj.name
            if name not in placed:
                if reasons is not None:
                    reasons.append(f"object {name!r} is not on disk")
                continue
            if lost.get(name):
                if reasons is not None:
                    reasons.append(
                        f"object {name!r} has tracks lost to a "
                        "multiple-disk failure; tertiary reload required")
                continue
            ratio = obj.bandwidth_mb_s / unit
            rate = round(ratio)
            if rate < 1 or abs(ratio - rate) > 1e-6:
                if reasons is not None:
                    reasons.append(
                        f"object {name!r} needs {ratio:.3f}x the base "
                        "rate; only integer multiples are schedulable on "
                        "this cycle")
                continue
            if load + rate > limit:
                if reasons is not None:
                    reasons.append(f"at capacity: load {load} of {limit} "
                                   f"units, request needs {rate}")
                continue
            # Least-loaded phase, lowest index first: plain round-robin
            # skews once streams complete unevenly; balancing on the
            # current load keeps every cycle's read volume equal, which
            # the staggered capacity bound assumes.
            phase = phase_load.index(min(phase_load))
            stream = Stream(stream_id=next_id, obj=obj,
                            admitted_cycle=cycle, phase=phase, rate=rate)
            registry[next_id] = live[next_id] = stream
            next_id += 1
            phase_load[phase] += rate
            load += rate
            streams.append(stream)
        self._next_stream_id = next_id
        return streams, len(objects) - len(streams)

    def terminate_stream(self, stream_id: int) -> None:
        """Drop a stream (degradation of service)."""
        if self._holder is not None:
            raise self._holder.refusal("terminate_stream")
        stream = self.streams[stream_id]
        if stream.is_active:
            stream.terminate()

    def stop_stream(self, stream_id: int) -> None:
        """A viewer leaves early: free the stream's capacity and buffers.

        Unlike termination this is voluntary; the front door can admit a
        replacement in the same cycle.
        """
        if self._holder is not None:
            raise self._holder.refusal("stop_stream")
        stream = self.streams[stream_id]
        if stream.is_active:
            stream.stop()

    def _mark_lost(self, stream_id: int, track: int,
                   cause: HiccupCause) -> None:
        stream = self.streams[stream_id]
        stream.mark_lost(track)
        self._lost_causes.setdefault((stream_id, track), cause)

    def _prune_live(self) -> None:
        """Drop the streams that left service from the live index.

        A ``TERMINATED`` stream joins the running ``_terminated`` count,
        and a retired stream's pending hiccup causes go with it: it
        never delivers again, so nothing else would pop them, and a
        stale cause holds ``_ff_classify`` at ``pending-state``.  Runs
        only in :meth:`_finalise`, at the epoch engine's entry and when
        its row pool retires finished rows; never in a property or an
        ff probe, which must not write state.
        """
        live = self._live
        retired = [stream for stream in live.values() if not stream.is_active]
        terminated = StreamStatus.TERMINATED
        causes = self._lost_causes
        for stream in retired:
            del live[stream.stream_id]
            if stream.status is terminated:
                self._terminated += 1
            for track in stream.lost_tracks:
                causes.pop((stream.stream_id, track), None)

    # -- failure control ---------------------------------------------------------

    def fail_disk(self, disk_id: int, mid_cycle: bool = False) -> None:
        """Fail a disk between cycles (idempotent).

        Failing an already-failed disk is a counted no-op, so stochastic
        injectors driving the scheduler directly cannot double-fail a
        drive; an unknown disk id raises
        :class:`~repro.errors.LayoutError` loudly.

        With ``mid_cycle=True`` the failure is deemed to have struck while
        the just-finished cycle's reads were in flight: tracks fetched from
        the failed disk in that cycle are invalidated and will hiccup
        (Section 4's "if a failure occurs in the middle of a cycle ... we
        are forced to ... cause a hiccup").  A cycle the epoch engine
        batched has no in-flight reads to invalidate, so a mid-cycle
        strike after one raises :class:`~repro.errors.SimulationError`:
        run the cycle before the strike with :meth:`run_cycle`, as
        :meth:`run_churn` does for a scheduled strike.
        """
        if self._holder is not None:
            raise self._holder.refusal("fail_disk")
        if self.array[disk_id].is_failed:
            self.redundant_fault_commands += 1
            return
        if mid_cycle and self._last_executed is None:
            raise SimulationError(
                f"mid-cycle failure of disk {disk_id} after a "
                f"fast-forwarded cycle: the epoch engine keeps no "
                f"in-flight reads to invalidate; run the cycle before "
                f"the strike scalar")
        self.array.fail(disk_id)
        self._invalidate_plan_cache()
        if mid_cycle and self._last_executed:
            for plan in self._last_executed:
                if plan.disk_id != disk_id or plan.kind is not ReadKind.DATA:
                    continue
                stream = self.streams.get(plan.stream_id)
                if stream is None or not stream.is_active:
                    continue
                if stream.take_track(plan.index) is None:
                    continue
                # If the group's parity was prefetched (the "sophisticated
                # scheduler" of Section 4), the block can be rebuilt right
                # now and the hiccup avoided.
                group = plan.index // self._stripe
                if not self._try_direct_reconstruction(stream, group, None):
                    self._mark_lost(plan.stream_id, plan.index,
                                    HiccupCause.MID_CYCLE_FAILURE)
        self.on_disk_failure(disk_id)
        self._account_data_loss()
        self._enforce_degraded_capacity()

    def repair_disk(self, disk_id: int) -> None:
        """Bring a reloaded disk back online between cycles (idempotent).

        Repairing a disk that is neither failed, fail-slow, nor carrying
        media errors is a counted no-op (stochastic injectors may fire
        repairs the scheduler already handled).
        """
        if self._holder is not None:
            raise self._holder.refusal("repair_disk")
        disk = self.array[disk_id]
        if not disk.is_failed and disk.service_fraction >= 1.0 \
                and not disk.has_media_errors:
            self.redundant_fault_commands += 1
            return
        self.array.repair(disk_id)
        self._invalidate_plan_cache()
        self.on_disk_repair(disk_id)
        self._account_data_loss()

    def degrade_disk(self, disk_id: int, slowdown: float) -> None:
        """Put a disk into fail-slow mode between cycles.

        ``slowdown`` is the factor by which the drive's per-track service
        time inflated (>= 1); the scheduler converts it into a service
        fraction through the paper's disk model and shrinks the disk's
        per-cycle slot budget accordingly.  Capacity the degraded array no
        longer has is shed immediately instead of surfacing as
        slot-overflow hiccup storms.
        """
        if self._holder is not None:
            raise self._holder.refusal("degrade_disk")
        from repro.faults.domain import degraded_service_fraction
        fraction = degraded_service_fraction(
            self.array.spec, self.config.cycle_length_s, slowdown)
        self.array.degrade(disk_id, fraction)
        self._invalidate_plan_cache()
        self.on_disk_degraded(disk_id)
        self._enforce_degraded_capacity()

    def restore_disk(self, disk_id: int) -> None:
        """Return a fail-slow disk to full speed (idempotent)."""
        if self._holder is not None:
            raise self._holder.refusal("restore_disk")
        disk = self.array[disk_id]
        if disk.service_fraction >= 1.0 and not disk.is_failed:
            self.redundant_fault_commands += 1
            return
        self.array.restore(disk_id)
        self._invalidate_plan_cache()

    def inject_media_error(self, disk_id: int, position: int,
                           transient: bool = False) -> None:
        """Plant a media error on one track position of one disk."""
        if self._holder is not None:
            raise self._holder.refusal("inject_media_error")
        self.array[disk_id].inject_media_error(position, transient=transient)
        self._invalidate_plan_cache()

    def on_disk_degraded(self, disk_id: int) -> None:
        """Scheme reaction to a fail-slow transition (default: none)."""

    # -- data-loss accounting and degraded capacity ------------------------------

    @property
    def lost_tracks(self) -> dict[str, tuple[int, ...]]:
        """Tracks currently unreconstructable, per object (ascending)."""
        return {name: tuple(sorted(tracks))
                for name, tracks in sorted(self._known_lost_tracks.items())
                if tracks}

    def _current_lost_tracks(self) -> dict[str, set[int]]:
        """Enumerate tracks no surviving disk or parity can reproduce.

        A parity group loses data when at least two of its blocks (data
        or parity) sit on failed disks: every *data* member on a failed
        disk is then gone.  Only runs the sweep, one pass over the
        layout's catalog-wide columns, while two or more disks are down.
        """
        failed = self.array.failed_ids
        if len(failed) < 2:
            return {}
        view = self.layout.columns
        down = np.zeros(self.layout.num_disks, dtype=bool)
        down[failed] = True
        tracks = np.flatnonzero(down[view.data_disk])
        owner = np.searchsorted(view.first_track, tracks, side="right") - 1
        tracks -= view.first_track[owner]  # each object's own numbering
        groups = view.first_group[owner] + tracks // self._stripe
        blocks_down = np.bincount(groups, minlength=len(view.parity_disk)) \
            + down[view.parity_disk]
        gone = blocks_down[groups] >= 2
        tracks, owner = tracks[gone], owner[gone]
        # The lost tracks run object by object, in placement order.
        starts = np.flatnonzero(np.diff(owner, prepend=-1))
        return {view.names[index]: set(chunk.tolist()) for index, chunk
                in zip(owner[starts].tolist(), np.split(tracks, starts[1:]))}

    def _account_data_loss(self) -> None:
        """Re-derive the lost-track set; shed streams that crossed into it.

        Called after every fail/repair transition.  Newly lost tracks are
        recorded as a :class:`DataLossEvent`; streams whose *remaining*
        playback includes a lost track are shed (their hiccup storm would
        never end), while streams past the damage keep playing.  A repair
        that recovers every track records an empty recovery event.
        """
        current = self._current_lost_tracks()
        previous = self._known_lost_tracks
        newly_lost: dict[str, tuple[int, ...]] = {}
        for name, tracks in current.items():
            fresh = tracks - previous.get(name, set())
            if fresh:
                newly_lost[name] = tuple(sorted(fresh))
        self._known_lost_tracks = current
        recovered = bool(previous) and not current
        if not newly_lost and not recovered:
            return
        shed: list[int] = []
        for stream in self.active_streams:
            tracks = current.get(stream.object.name)
            if not tracks:
                continue
            if any(t >= stream.next_delivery_track for t in tracks):
                for track in tracks:
                    if track >= stream.next_delivery_track:
                        self._mark_lost(stream.stream_id, track,
                                        HiccupCause.DATA_LOSS)
                self.terminate_stream(stream.stream_id)
                shed.append(stream.stream_id)
        self._pending_shed += len(shed)
        self.report.data_loss_events.append(DataLossEvent(
            cycle=self.cycle_index,
            failed_disks=tuple(self.array.failed_ids),
            lost_tracks=newly_lost,
            shed_streams=tuple(shed),
        ))

    def _capacity_penalty(self) -> int:
        """Stream capacity consumed by the current failure set.

        Zero here: for Streaming RAID and Staggered Group the parity
        disks' reserved bandwidth absorbs any single failure per cluster,
        and multi-failure loss is handled by shedding the affected
        streams.  Improved-bandwidth and Non-clustered override this with
        their reserve/pool pressure.
        """
        return 0

    def effective_admission_limit(self) -> int:
        """The admission bound under the live fault-domain state."""
        return fault_aware_capacity(self.admission_limit, self.array,
                                    self._capacity_penalty())

    def _enforce_degraded_capacity(self) -> None:
        """Shed newest streams while the load exceeds degraded capacity.

        Shedding whole streams keeps the survivors hiccup-free; without
        it, a fail-slow or reserve-exhausted array drops reads across
        *every* stream each cycle (a slot-overflow hiccup storm).
        """
        limit = self.effective_admission_limit()
        active = self.active_streams
        load = sum(stream.rate for stream in active)
        if load <= limit:
            return
        victims = sorted(active,
                         key=lambda s: (s.admitted_cycle, s.stream_id),
                         reverse=True)
        for stream in victims:
            if load <= limit:
                break
            self.terminate_stream(stream.stream_id)
            load -= stream.rate
            self._pending_shed += 1

    def start_rebuild(self, disk_id: int,
                      writes_per_cycle: Optional[int] = None,
                      ) -> "OnlineRebuilder":
        """Begin rebuilding a failed disk onto a spare (rebuild mode).

        The rebuild consumes only idle slots; the disk is repaired
        automatically when the last block lands.  Returns the
        :class:`~repro.sched.rebuild.OnlineRebuilder` for progress checks.
        """
        if self._holder is not None:
            raise self._holder.refusal("start_rebuild")
        from repro.sched.rebuild import OnlineRebuilder
        rebuilder = OnlineRebuilder(self, disk_id,
                                    writes_per_cycle=writes_per_cycle,
                                    distributed=self.distributed_rebuild)
        self.rebuilders.append(rebuilder)
        return rebuilder

    # -- the cycle-plan cache ---------------------------------------------------

    def _invalidate_plan_cache(self) -> None:
        """Drop every memoized group plan (failure/repair/placement)."""
        self._plan_cache.clear()
        self._plan_cache_key = None

    def _refresh_plan_cache(self) -> None:
        """Drop the plan cache if the layout or array state moved on.

        The epoch pair catches *every* invalidation source — scheduler-level
        ``fail_disk``/``repair_disk``, direct ``array.fail`` calls, and
        content-manager placements — at one O(1) check per cycle (the
        array's fault index keeps the state epoch).  A placement change
        drops every plan, exactly like a fault; the epoch engine's read
        tables are keyed on the same pair, so they follow on their next
        use (:func:`repro.sched.epoch.flat_tables`).
        """
        key = (self.layout.epoch, self.array.state_epoch)
        if key == self._plan_cache_key:
            return
        self._plan_cache.clear()
        self._plan_cache_key = key

    def _group_plan(self, name: str, group: int) -> GroupPlan:
        """The memoized read plan for one (object, group)."""
        groups = self._plan_cache.get(name)
        if groups is None:
            groups = self._plan_cache[name] = {}
        plan = groups.get(group)
        if plan is None:
            members, parity_addr = self.layout.group_geometry(name, group)
            track = group * self._stripe
            if not self.array.faults.failed:
                # No disk down: skip the per-member failure checks.
                healthy = []
                for disk_id, position in members:
                    healthy.append((disk_id, position, track))
                    track += 1
                plan = GroupPlan(tuple(healthy), 0, parity_addr, track)
            else:
                disks = self.array.disks
                healthy = []
                failed = 0
                for disk_id, position in members:
                    if disks[disk_id].is_failed:
                        failed += 1
                    else:
                        healthy.append((disk_id, position, track))
                    track += 1
                parity = (None if disks[parity_addr[0]].is_failed
                          else parity_addr)
                plan = GroupPlan(tuple(healthy), failed, parity, track)
            groups[group] = plan
        return plan

    # -- the cycle engine -----------------------------------------------------------

    def run_cycle(self) -> CycleReport:
        """Simulate one full cycle; returns its report."""
        if self._holder is not None:
            raise self._holder.refusal("run_cycle")
        self._refresh_plan_cache()
        report = CycleReport(cycle=self.cycle_index)
        self._deliver_phase(report)
        plans = self.plan_reads(self.cycle_index)
        report.reads_planned = len(plans)
        executed, dropped = self.resolve_plans(plans, report)
        self._handle_dropped(dropped, report)
        report.reads_dropped = len(dropped)
        self._execute_reads(executed, report)
        self._reconstruct_phase(executed, report)
        self._rebuild_phase(executed, report)
        self._finalise(report)
        self.report.record(report)
        self.cycle_index += 1
        return report

    def run_cycles(self, count: int,
                   fast_forward: bool = False) -> list[CycleReport]:
        """Simulate ``count`` cycles: :meth:`run_churn` with no arrivals.

        With ``fast_forward=True``, stretches of *stable* cycles —
        metadata-only mode, no fail-slow disk or media error, no pending
        reconstruction or shed, any failed disks in pairwise-disjoint
        parity groups — are advanced by the batched epoch engine
        (:mod:`repro.sched.epoch`) instead of the full per-read machinery.
        Healthy and degraded farms, online rebuilds and mixed stream
        rates all ride that one engine.  The moment a cycle cannot be
        proven identical to the scalar cycle (a fault lands, a slot
        would overflow, a hiccup is imminent, a rebuild would complete)
        the engine stops at the cycle boundary and the scalar path takes
        over, so results are **bit-identical** with the flag on or off —
        with one exception the scheduler refuses rather than gets wrong:
        a batched cycle materialises no reads, so
        ``fail_disk(mid_cycle=True)`` right after one raises
        :class:`~repro.errors.SimulationError`.  Script mid-cycle strikes
        through :meth:`run_churn`'s ``schedule``, which runs the cycle
        before each strike scalar.
        """
        return self.run_churn(count, {}, fast_forward)[0]

    # -- batched epoch fast-forward ---------------------------------------------------

    def _fast_forward_ready(self) -> bool:
        """Scheme veto for the epoch engine (default: no veto).

        Concrete schedulers override this to rule out states the read
        tables do not model (IB: proactive parity or mirror balancing;
        NC: a degraded cluster's transition).
        A subclass whose read/delivery hooks do work the tables cannot
        express must veto here, because the batched step skips hook
        dispatch entirely.
        """
        return True

    def _ff_classify(self) -> Optional[str]:
        """Why the current state refuses a fast-forward epoch, or None.

        Probes scheduler-wide state only; the per-stream checks run in
        the engine's single entry walk over the live index.  Checked
        once per fast-forward entry (state cannot change under the
        engine's feet — fault commands only land between engine
        entries).  Cheapest checks first, so permanently ineligible runs
        (payload mode) pay next to nothing per scalar cycle.  Callers
        tally the reason via :meth:`_ff_note`.
        """
        if not self.metadata_only or self.verify_payloads:
            return "payload-mode"
        if self._pending_reconstructions or self._pending_shed \
                or self._lost_causes:
            return "pending-state"
        if self._known_lost_tracks:
            # Lost tracks mean some parity group holds two or more
            # failed blocks: the read tables cannot express the shed
            # transition, so shared-group failure sets stay scalar.
            # Conversely, an *empty* lost-track set under K failures
            # proves every pair of failed disks is parity-group-disjoint
            # — the geometric precondition the engine needs — because a
            # shared group would have lost a data track the sweep in
            # ``_current_lost_tracks`` records.
            return ("shared-group" if len(self.array.failed_ids) > 1
                    else "pending-state")
        faults = self.array.faults
        impaired = faults.slow | faults.media
        if impaired:
            # The lowest-id impaired disk, failed or not, names the
            # reason, fail-slow before media errors.
            return ("fail-slow" if min(impaired) in faults.slow
                    else "media-error")
        if not self._fast_forward_ready():
            return "scheme-veto"
        return None

    def _ff_note(self, reason: Optional[str]) -> None:
        """Tally why the fast path declined an entry or bailed mid-epoch.

        Event-granular: one entry per refused engine entry plus one per
        in-epoch bail.  The tally lives outside the report's rows and
        summary, so fast and scalar runs stay fingerprint-identical.
        """
        if reason is None:
            return
        tally = self.report.ff_disengagements
        tally[reason] = tally.get(reason, 0) + 1

    def run_epoch(self, limit: int, reports: list[CycleReport],
                  arrivals: epoch.Arrivals,
                  held: Optional[epoch._Epoch],
                  ) -> tuple[Optional[epoch._Epoch], int, int, bool]:
        """Advance up to ``limit`` cycles on the fast-forward engine.

        :class:`Churn`'s one way into :func:`repro.sched.epoch.run`,
        entering an epoch or resuming ``held``, a method of its own so a
        span tracer can count engine advances by name.  Returns ``(open
        epoch or None, admitted, rejected, consumed)``.
        """
        return epoch.run(self, limit, reports, arrivals, held)

    def _ff_gate_params(self, stream: Stream) -> tuple[int, int, int, int]:
        """Static read-gate parameters for the epoch engine.

        ``(pace_rate, pace_base, phase_mod, phase_val)``: in cycle ``c``
        the stream reads only if ``c % phase_mod == phase_val`` and (when
        ``pace_rate`` is non-zero) each table step starts with the read
        pointer below ``(c + 1 - pace_base) * pace_rate``.  The base
        schemes read every cycle, unpaced; SG gates on the stream's
        phase, NC paces on the delivery schedule.
        """
        return 0, 0, 1, 0

    def _ff_stream_ok(self, stream: Stream) -> bool:
        """Per-stream canonical-state check at engine entry.

        The group schemes never hold accumulators, so any accumulator is
        leftover transition state: the stream stays on the scalar path
        until its buffers return to the canonical shape (at most one
        group's worth of cycles).
        """
        return not stream.accumulators

    # -- churn -------------------------------------------------------------------------

    def churn(self, fast_forward: bool = True,
              schedule: Optional["FaultSchedule"] = None) -> Churn:
        """A driver for one run of cycles, advanced a call at a time
        (see :class:`Churn`)."""
        return Churn(self, fast_forward, schedule)

    def run_churn(self, count: int, arrivals: epoch.Arrivals,
                  fast_forward: bool = True,
                  schedule: Optional["FaultSchedule"] = None,
                  ) -> tuple[list[CycleReport], int, int]:
        """Run ``count`` cycles with per-cycle arrivals and scripted faults.

        One :meth:`Churn.advance` of a fresh driver, then its
        :meth:`Churn.close`, so the state is written back when it
        returns.  Returns ``(reports, admitted, rejected)``.
        """
        driver = self.churn(fast_forward, schedule)
        try:
            return driver.advance(count, arrivals)
        finally:
            driver.close()

    # -- phases ------------------------------------------------------------------------

    def _delivery_hook_needed(self) -> bool:
        """Whether ``_on_track_delivered`` has any work this cycle.

        Schemes overriding the hook can override this too (NC: only while
        accumulators are open) so healthy cycles keep the fast path.
        """
        return True

    def _deliver_phase(self, report: CycleReport) -> None:
        verify = self.verify_payloads
        hook_active = (self._delivery_hook_active
                       and self._delivery_hook_needed())
        cycle = self.cycle_index
        k_prime = self.config.k_prime
        base_quota = self._base_quota
        for stream in self.active_streams:
            start = stream.delivery_start_cycle
            if start is None or cycle < start:
                continue
            quota = (k_prime * stream.rate if base_quota
                     else self.deliveries_per_cycle(stream))
            due = min(quota, stream.num_tracks - stream.next_delivery_track)
            buffer = stream.buffer
            delivered = 0
            for _ in range(due):
                track = stream.next_delivery_track
                payload = buffer.pop(track, None)
                if payload is None or verify or hook_active:
                    self._deliver_track(stream, track, payload, report)
                else:
                    delivered += 1
                stream.next_delivery_track += 1
            if due:
                if delivered:
                    report.tracks_delivered += delivered
                    stream.delivered_tracks += delivered
                stream.activate()
            if stream.parity_buffer or stream.accumulators:
                self._release_finished_groups(stream)
            if stream.next_delivery_track >= stream.num_tracks \
                    and stream.is_active:
                stream.complete()

    def _deliver_track(self, stream: Stream, track: int,
                       payload: Optional[bytes],
                       report: CycleReport) -> None:
        """The slow delivery path: a hiccup, byte verification, or a
        scheme delivery hook (the healthy metadata-mode fast path is
        inlined in :meth:`_deliver_phase`)."""
        if payload is None:
            cause = self._lost_causes.pop(
                (stream.stream_id, track), None)
            if cause is None:
                address = self.layout.data_address(stream.object.name, track)
                cause = (HiccupCause.DISK_FAILURE
                         if self.array[address.disk_id].is_failed
                         else HiccupCause.TRANSITION)
            report.hiccups.append(HiccupRecord(
                cycle=self.cycle_index,
                stream_id=stream.stream_id,
                object_name=stream.object.name,
                track=track,
                cause=cause,
            ))
            stream.hiccup_count += 1
            stream.lost_tracks.discard(track)
            return
        if self.verify_payloads:
            expected = stream.object.track_payload(track, self.track_bytes)
            if payload != expected:
                self.report.payload_mismatches += 1
        report.tracks_delivered += 1
        stream.delivered_tracks += 1
        if self._delivery_hook_active:
            self._on_track_delivered(stream, track, payload)

    def _release_finished_groups(self, stream: Stream) -> None:
        """Drop parity/accumulator buffers of fully delivered groups."""
        if stream.next_delivery_track == 0:
            return
        if not stream.parity_buffer and not stream.accumulators:
            return
        current_group, offset = divmod(
            stream.next_delivery_track, self.config.stripe_width)
        for group in list(stream.parity_buffer):
            if group < current_group:
                stream.drop_parity(group)
        for group in list(stream.accumulators):
            if group < current_group:
                stream.drop_parity(group)

    def _execute_reads(self, executed: list[PlannedRead],
                       report: CycleReport) -> None:
        streams = self.streams
        disks = self.array.disks
        data_kind = ReadKind.DATA
        next_cycle = self.cycle_index + 1
        hook = self._on_read_executed if self._read_hook_active else None
        #: Idle capacity left this cycle, computed lazily on the first
        #: media error: the deadline-aware budget for retries and
        #: recovery reads.
        slack: Optional[dict[int, int]] = None
        media_failed: list[PlannedRead] = []
        # Plans arrive grouped by stream; hoist the lookup across the run.
        last_id = None
        stream = None
        for plan in executed:
            if plan.stream_id != last_id:
                last_id = plan.stream_id
                candidate = streams.get(last_id)
                stream = (candidate if candidate is not None
                          and candidate.is_active else None)
            if stream is None:
                continue
            disk = disks[plan.disk_id]
            try:
                payload = disk.read(plan.position)
            except MediaReadError as exc:
                report.media_errors += 1
                if slack is None:
                    slack = self.slot_table.idle_slots(executed)
                if exc.transient and slack.get(plan.disk_id, 0) > 0:
                    # A transient glitch clears on the failed attempt; an
                    # immediate retry within the cycle's slack succeeds.
                    slack[plan.disk_id] -= 1
                    report.media_retries += 1
                    try:
                        payload = disk.read(plan.position)
                    except MediaReadError:
                        media_failed.append(plan)
                        continue
                else:
                    media_failed.append(plan)
                    continue
            if plan.kind is data_kind:
                stream.buffer[plan.index] = payload
                if stream.delivery_start_cycle is None:
                    stream.delivery_start_cycle = next_cycle
            else:
                stream.parity_buffer[plan.index] = payload
                report.parity_reads += 1
            report.reads_executed += 1
            if hook is not None:
                hook(stream, plan, payload)
        self._last_executed = executed
        if media_failed:
            assert slack is not None
            self._recover_media_failures(media_failed, slack, report)

    def _recover_media_failures(self, failed_plans: list[PlannedRead],
                                slack: dict[int, int],
                                report: CycleReport) -> None:
        """Per-track parity fallback for reads lost to media errors.

        Each unreadable *data* track is rebuilt from its parity group:
        sibling blocks already buffered this cycle are reused, the rest
        (plus parity) are read directly within the cycle's remaining
        idle-slot slack, and the XOR lands in the stream buffer before
        the delivery deadline — a single bad sector never hiccups a
        stream.  Recovery is impossible (and the track marked lost with a
        media-error cause) when the group already has a failed member,
        its parity disk is down, or the slack cannot cover the extra
        reads.  An unreadable *parity* block costs nothing by itself.
        """
        next_cycle = self.cycle_index + 1
        for plan in failed_plans:
            if plan.kind is not ReadKind.DATA:
                continue
            stream = self.streams.get(plan.stream_id)
            if stream is None or not stream.is_active:
                continue
            group = plan.index // self._stripe
            entry = self._group_plan(plan.object_name, group)
            if entry.failed_members or entry.parity is None:
                # The group is already one block short: the media error is
                # a second fault and the track cannot be rebuilt in-cycle.
                self._mark_lost(plan.stream_id, plan.index,
                                HiccupCause.MEDIA_ERROR)
                continue
            payload = self._rebuild_from_group(stream, plan, entry, slack,
                                               report)
            if payload is None:
                self._mark_lost(plan.stream_id, plan.index,
                                HiccupCause.MEDIA_ERROR)
                continue
            stream.buffer[plan.index] = payload
            if stream.delivery_start_cycle is None:
                stream.delivery_start_cycle = next_cycle
            stream.reconstructed_tracks += 1
            report.media_reconstructions += 1
            if self._read_hook_active:
                self._on_read_executed(stream, plan, payload)

    def _rebuild_from_group(self, stream: Stream, plan: PlannedRead,
                            entry: GroupPlan, slack: dict[int, int],
                            report: CycleReport) -> Optional[bytes]:
        """XOR the group's survivors + parity; None if sources are short.

        Consumes idle-slot slack for every source that is not already
        buffered; restores nothing on failure (the attempted reads were
        genuinely issued).
        """
        disks = self.array.disks
        buffer = stream.buffer
        survivors: list[bytes] = []
        for disk_id, position, track in entry.healthy:
            if track == plan.index:
                continue
            resident = buffer.get(track)
            if resident is not None:
                survivors.append(resident)
                continue
            if slack.get(disk_id, 0) < 1:
                return None  # no deadline-safe capacity for the re-read
            slack[disk_id] -= 1
            try:
                survivors.append(disks[disk_id].read(position))
            except MediaReadError:
                report.media_errors += 1
                return None
            report.media_recovery_reads += 1
        parity = stream.parity_buffer.get(plan.index // self._stripe)
        if parity is None:
            parity_disk, parity_position = entry.parity  # type: ignore[misc]
            if slack.get(parity_disk, 0) < 1:
                return None
            slack[parity_disk] -= 1
            try:
                parity = disks[parity_disk].read(parity_position)
            except MediaReadError:
                report.media_errors += 1
                return None
            report.media_recovery_reads += 1
        blocks: list[Optional[bytes]] = [None]
        blocks.extend(survivors)
        return self.codec.reconstruct(blocks, parity)

    def _reconstruct_phase(self, executed: list[PlannedRead],
                           report: CycleReport) -> None:
        """Rebuild missing blocks in groups touched this cycle.

        All eligible groups of the cycle are XOR-reduced together in one
        matrix operation (:meth:`ParityCodec.reconstruct_batch`) instead of
        block by block.
        """
        streams = self.streams
        touched: set[tuple[int, int]] = set()
        stripe = self._stripe
        parity_kind = ReadKind.PARITY
        last_id = None
        has_parity = False
        for plan in executed:
            # Only streams holding a parity block can reconstruct; in the
            # healthy steady state no parity is buffered and the whole
            # phase is a cheap scan.
            if plan.stream_id != last_id:
                last_id = plan.stream_id
                stream = streams.get(last_id)
                has_parity = stream is not None and bool(stream.parity_buffer)
            if not has_parity:
                continue
            if plan.kind is parity_kind:
                touched.add((plan.stream_id, plan.index))
            else:
                touched.add((plan.stream_id, plan.index // stripe))
        if not touched:
            return
        candidates: list[tuple[Stream, int, int]] = []
        rows: list[list[bytes]] = []
        for stream_id, group in sorted(touched):
            stream = streams.get(stream_id)
            if stream is None or not stream.is_active:
                continue
            found = self._reconstruction_candidate(stream, group)
            if found is None:
                continue
            missing_track, row = found
            candidates.append((stream, group, missing_track))
            rows.append(row)
        if not candidates:
            return
        payloads = self.codec.reconstruct_batch(rows)
        for (stream, group, missing_track), payload in zip(candidates,
                                                           payloads):
            self._commit_reconstruction(stream, missing_track, payload,
                                        report)

    def _reconstruction_candidate(self, stream: Stream, group: int,
                                  ) -> Optional[tuple[int, list[bytes]]]:
        """``(missing track, survivors + parity row)`` if the group is one
        fetched block short and everything else is resident; else None."""
        parity = stream.parity_buffer.get(group)
        if parity is None:
            return None
        tracks = self.layout.group_tracks(stream.object.name, group)
        buffer = stream.buffer
        missing = [t for t in tracks
                   if t not in buffer
                   and t >= stream.next_delivery_track]
        if len(missing) != 1:
            return None
        present = [buffer[t] for t in tracks if t in buffer]
        if len(present) != len(tracks) - 1:
            return None  # some member was already delivered and discarded
        # Zero padding for short tail groups is unnecessary: zero blocks
        # are the XOR identity.
        present.append(parity)
        return missing[0], present

    def _commit_reconstruction(self, stream: Stream, track: int,
                               payload: bytes,
                               report: Optional[CycleReport]) -> None:
        stream.store_track(track, payload)
        self._lost_causes.pop((stream.stream_id, track), None)
        stream.lost_tracks.discard(track)
        stream.reconstructed_tracks += 1
        if report is None:
            self._pending_reconstructions += 1
        else:
            report.reconstructions += 1

    def _try_direct_reconstruction(self, stream: Stream, group: int,
                                   report: Optional[CycleReport]) -> bool:
        """Rebuild the single missing block of a fully resident group."""
        found = self._reconstruction_candidate(stream, group)
        if found is None:
            return False
        missing_track, row = found
        payload = self.codec.reconstruct(
            [None] + row[:-1], row[-1])
        self._commit_reconstruction(stream, missing_track, payload, report)
        return True

    def _rebuild_phase(self, executed: list[PlannedRead],
                       report: CycleReport) -> None:
        """Feed idle slots to any active rebuilds (lowest priority)."""
        if not self.rebuilders:
            return
        idle = self.slot_table.idle_slots(executed)
        for rebuilder in list(self.rebuilders):
            try:
                report.blocks_rebuilt += rebuilder.run_step(idle)
            except ReconstructionError:
                # A second failure made the rebuild impossible: this disk
                # now needs a tertiary reload (catastrophic failure).
                rebuilder.completed = True
                self.rebuilders.remove(rebuilder)
                continue
            if rebuilder.completed:
                self.rebuilders.remove(rebuilder)

    def _finalise(self, report: CycleReport) -> None:
        report.reconstructions += self._pending_reconstructions
        self._pending_reconstructions = 0
        report.streams_shed += self._pending_shed
        self._pending_shed = 0
        self._prune_live()
        active = 0
        active_status = StreamStatus.ACTIVE
        for stream in self._live.values():
            if stream.status is active_status:
                active += 1
        report.streams_active = active
        report.streams_terminated = self._terminated
        report.buffered_tracks = self.tracker.sample(
            self.active_streams, extra_tracks=self._extra_buffer_tracks())
        report.pool_tracks_in_use = self._extra_buffer_tracks()

    def _extra_buffer_tracks(self) -> int:
        """Buffers held outside streams (NC's pool overrides this)."""
        return 0

    # -- helpers shared by group-at-a-time schemes -------------------------------

    def _plan_group_read(self, stream: Stream, plans: list[PlannedRead],
                         include_parity: bool,
                         data_purpose: ReadPurpose = ReadPurpose.NORMAL,
                         ) -> None:
        """Plan a whole-parity-group read for a stream's next group.

        Skips members on failed disks; adds a parity read when
        ``include_parity`` is set, a member is missing, and the parity disk
        is up.  Advances the read pointer to the end of the group.
        """
        name = stream.object.name
        group, offset = divmod(stream.next_read_track, self._stripe)
        if offset != 0:
            raise SimulationError(
                f"group read planned mid-group (stream {stream.stream_id}, "
                f"track {stream.next_read_track})"
            )
        entry = self._group_plan(name, group)
        stream_id = stream.stream_id
        append = plans.append
        data_kind = ReadKind.DATA
        for disk_id, position, track in entry.healthy:
            append(PlannedRead(disk_id, position, stream_id, name,
                               data_kind, track, data_purpose))
        if include_parity and entry.failed_members \
                and entry.parity is not None:
            append(PlannedRead(entry.parity[0], entry.parity[1], stream_id,
                               name, ReadKind.PARITY, group,
                               ReadPurpose.RECOVERY))
        stream.next_read_track = entry.next_read_track


class Churn:
    """One run of cycles, advanced a call at a time: the only code that
    chooses between the epoch engine and :meth:`CycleScheduler.run_cycle`.

    Each :meth:`advance` runs its cycles with per-cycle arrivals, which
    map *absolute* cycle indices to the objects requested in that
    cycle, or are a closed loop (:class:`~repro.sched.epoch.ClosedLoop`).
    Each cycle first applies the ``schedule`` at its top: scrub passes,
    then events.  With ``fast_forward`` on,
    :meth:`~CycleScheduler.run_epoch` then runs up to
    :meth:`FaultSchedule.epoch_end`, however short, admitting each batch
    in-engine.  A cycle the engine did not reach (such as one feeding a
    mid-cycle strike, which has no window) runs scalar:
    :meth:`~CycleScheduler.admit_batch`, then ``run_cycle``.  Results
    are bit-identical either way, and however the cycles are split
    into advances.

    An epoch that reaches the end of an advance with no bail *pauses*:
    its row pool, read tables and running totals stay live, and the next
    advance resumes it with no entry walk, fill or write-back.  It ends
    (writing the state back) only on a bail, before a cycle top with
    due fault events, before a scalar cycle, when the layout or array
    state moved between advances, or at :meth:`close`.  While it is
    open the scheduler refuses every call that would read or change the
    state it holds (:meth:`refusal`).
    """

    __slots__ = ("sched", "fast_forward", "schedule", "_epoch")

    def __init__(self, sched: CycleScheduler, fast_forward: bool,
                 schedule: Optional["FaultSchedule"]) -> None:
        self.sched = sched
        self.fast_forward = fast_forward
        self.schedule = schedule
        #: The paused epoch between advances, else None.
        self._epoch: Optional[epoch._Epoch] = None

    def __repr__(self) -> str:
        state = "epoch open" if self._epoch is not None else "no epoch open"
        return (f"Churn(cycle={self.sched.cycle_index}, "
                f"fast_forward={self.fast_forward}, {state})")

    def refusal(self, call: str) -> SimulationError:
        """The error for ``call`` made while this driver holds an epoch."""
        return SimulationError(
            f"{call} while {self!r} holds an epoch open: the streams, "
            f"disk read counters and buffer peaks lag its row pool; "
            f"close() the driver first")

    def advance(self, count: int, arrivals: epoch.Arrivals,
                ) -> tuple[list[CycleReport], int, int]:
        """Run ``count`` more cycles; returns ``(reports, admitted,
        rejected)`` for them."""
        sched = self.sched
        holder = sched._holder
        if holder is not None and holder is not self:
            raise holder.refusal("advance of another driver")
        schedule = self.schedule
        reports: list[CycleReport] = []
        admitted = rejected = 0
        end = sched.cycle_index + count
        while sched.cycle_index < end:
            cycle = sched.cycle_index
            if schedule is not None:
                if schedule.events_before_cycle(cycle):
                    self.close()
                schedule.apply(sched, cycle)
            consumed = False
            if self.fast_forward:
                stop = (end if schedule is None
                        else schedule.epoch_end(cycle, end))
                if stop > cycle:
                    held, a, r, consumed = sched.run_epoch(
                        stop - cycle, reports, arrivals, self._epoch)
                    self._epoch = held
                    sched._holder = self if held is not None else None
                    admitted += a
                    rejected += r
                    if schedule is not None:
                        # An epoch runs no media error, so the passes at
                        # its tops (and at a bail's, run below) are idle.
                        schedule.credit_passes(
                            cycle + 1, min(sched.cycle_index + 1, stop))
                    if sched.cycle_index == stop:
                        continue
            self.close()
            batch = (arrivals.missing(Counter(
                s.object.name for s in sched.active_streams))
                if isinstance(arrivals, epoch.ClosedLoop)
                else arrivals.get(sched.cycle_index))
            if batch and not consumed:
                streams, r = sched.admit_batch(batch)
                admitted += len(streams)
                rejected += r
            reports.append(sched.run_cycle())
        return reports, admitted, rejected

    def streams_active(self) -> int:
        """Streams in service: the open epoch's live rows, else the
        scheduler's active streams."""
        if self._epoch is None:
            return len(self.sched.active_streams)
        return int(np.count_nonzero(self._epoch.pool.live))

    def close(self) -> None:
        """End the open epoch, if any, writing its state back
        (idempotent)."""
        held = self._epoch
        if held is not None:
            self._epoch = None
            self.sched._holder = None
            held.exit()
