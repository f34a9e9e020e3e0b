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

Concrete schedulers implement planning and failure-transition behaviour;
everything else — buffers, hiccup attribution, payload verification,
metrics — lives here so the four schemes stay comparable.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Optional

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
from repro.parity.xor import META_PAYLOAD, MetaParityCodec, ParityCodec
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

#: Epoch-engine row pool sizing: the row arrays start at
#: ``_FF_ROW_GROWTH`` times the live rows (at least ``_FF_ROW_FLOOR``,
#: never more than the window's worst case) and grow by that factor when
#: retiring finished rows leaves no room for a cycle's arrivals.
_FF_ROW_FLOOR = 64
_FF_ROW_GROWTH = 2

#: The epoch engine's per-row columns in pool order: dtype and the value
#: a row past the epoch's streams holds (not live, not reading, nothing
#: staged).
_FF_ROW_COLUMNS: tuple[tuple[type, int], ...] = (
    (np.int64, 0),    # obj_base: the object's first read-table position
    (np.int64, 0),    # held_base: its first prefix-sum pointer
    (np.int64, 0),    # next_read
    (np.int64, 0),    # next_del
    (np.int64, 0),    # num_tracks
    (np.int64, 1),    # rate
    (np.int64, -1),   # start: delivery start cycle, -1 before any read
    (np.int64, 0),    # quota: tracks delivered per started cycle
    (np.int64, 0),    # pace_rate
    (np.int64, 0),    # pace_base
    (np.int64, 1),    # phase_mod
    (np.int64, 0),    # phase_val
    (bool, True),     # unpaced
    (bool, False),    # admitted_mask: admitted, nothing delivered yet
    (bool, False),    # live_mask
    (np.int64, 0),    # deliv_delta: tracks delivered this epoch
    (np.int64, 0),    # recon_delta: tracks reconstructed this epoch
    (np.int64, 0),    # peak0: buffer peak at entry
    (np.int64, 0),    # peak: running buffer peak
)


def _ff_row_pool(size: int, columns: tuple[np.ndarray, ...] = (),
                 keep: Optional[np.ndarray] = None) -> list[np.ndarray]:
    """``size`` neutral engine rows per column, ``columns[keep]`` first."""
    pool = []
    for i, (dtype, neutral) in enumerate(_FF_ROW_COLUMNS):
        column = np.full(size, neutral, dtype=dtype)
        if keep is not None:
            column[:len(keep)] = columns[i][keep]
        pool.append(column)
    return pool


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


class CycleScheduler(abc.ABC):
    """Cycle-synchronous scheduler: the common engine for all schemes."""

    #: Schemes whose layouts spread parity groups over arbitrary disk
    #: subsets opt rebuilds into the distributed (source-disjoint
    #: round-robin) pending order; see ``OnlineRebuilder``.
    distributed_rebuild = False

    __slots__ = (
        "layout", "array", "config", "verify_payloads", "metadata_only",
        "track_bytes", "codec", "slot_table", "report", "tracker",
        "cycle_index", "streams", "_next_stream_id",
        "_lost_causes", "_last_executed", "_pending_reconstructions",
        "rebuilders", "_stripe", "_plan_cache", "_plan_cache_key",
        "_read_hook_active", "_delivery_hook_active",
        "_base_quota", "admission_limit", "redundant_fault_commands",
        "_known_lost_tracks", "_pending_shed", "_ff_tables",
        "_ff_tables_key", "_ff_flat", "_ff_flat_names", "_ff_geom",
        "_ff_geom_epoch",
    )

    def __init__(self, layout: DataLayout, array: DiskArray,
                 config: SchedulerConfig,
                 admission_limit: Optional[int] = None,
                 verify_payloads: bool = False,
                 metrics_tail: Optional[int] = None) -> None:
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
        #: ``metrics_tail`` bounds the retained per-cycle reports (long
        #: steady-state runs); run-wide totals stay exact via the
        #: report's streaming reducer.
        self.report = SimulationReport(tail=metrics_tail)
        self.tracker = BufferTracker(array.spec.track_size_mb)
        self.cycle_index = 0
        self.streams: dict[int, Stream] = {}
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
        #: so a single object's plans can be evicted in O(1) when the
        #: layout's delta log reports its removal (incremental refresh).
        self._plan_cache: dict[str, dict[int, GroupPlan]] = {}
        self._plan_cache_key: Optional[tuple[int, int]] = None
        #: Fast-forward read tables: object name -> (member counts,
        #: member disks, next pointers, divisor, degraded columns or
        #: None) per read position under the current failure set, valid
        #: for one (placement epoch, array state epoch) pair, so every
        #: fail/repair/media transition re-derives them.
        self._ff_tables: dict[str, tuple] = {}
        self._ff_tables_key: Optional[tuple[int, int]] = None
        #: Concatenated read tables for the last fast-forward entry's
        #: object tuple; valid while the key and the tuple both hold.
        self._ff_flat: Optional[tuple] = None
        self._ff_flat_names: Optional[tuple[str, ...]] = None
        #: Per-object placement geometry (group sizes, flat member
        #: disks, parity disks, group-end pointers) as numpy arrays,
        #: keyed on the *layout* epoch only: failures move no data, so
        #: the geometry survives every fail/repair/media transition and
        #: the table builder derives its tables from it with a cheap
        #: failure overlay instead of a full per-group replan.
        self._ff_geom: dict[str, tuple[np.ndarray, np.ndarray,
                                       np.ndarray, np.ndarray,
                                       np.ndarray]] = {}
        self._ff_geom_epoch: Optional[int] = None
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

    @abc.abstractmethod
    def plan_reads(self, cycle: int) -> list[PlannedRead]:
        """Decide this cycle's reads; may advance stream read pointers."""

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
        """Streams currently occupying server resources, by id."""
        return [s for s in self.streams.values() if s.is_active]

    @property
    def active_load(self) -> int:
        """Capacity units in use: the rate-weighted active stream count."""
        return sum(s.rate for s in self.active_streams)

    def _rate_of(self, obj: MediaObject) -> int:
        """The object's bandwidth as a multiple of the server's base rate.

        Only (near-)integer multiples are schedulable on a fixed cycle —
        the paper's MPEG-2-on-an-MPEG-1-server case is exactly 3x.
        """
        ratio = obj.bandwidth_mb_s / self.config.params.object_bandwidth_mb_s
        rate = round(ratio)
        if rate < 1 or abs(ratio - rate) > 1e-6:
            raise AdmissionError(
                f"object {obj.name!r} needs {ratio:.3f}x the base rate; "
                "only integer multiples are schedulable on this cycle"
            )
        return rate

    def admit(self, obj: MediaObject) -> Stream:
        """Admit a new stream for ``obj`` (AdmissionError if at capacity).

        Admission is rate-weighted: one MPEG-2 stream on an MPEG-1-cycled
        server consumes three capacity units (Section 1's "or some
        combination of the two").
        """
        return self._admit_checked(obj, self._phase_loads(),
                                   self.effective_admission_limit())

    def admit_batch(self, objects: list[MediaObject],
                    ) -> tuple[list[Stream], int]:
        """Admit one cycle's arrivals; returns ``(streams, rejected)``.

        Behaviourally identical to calling :meth:`admit` per object and
        counting :class:`AdmissionError` as a rejection, but the
        rate-weighted phase loads and the fault-aware limit are computed
        once and maintained incrementally instead of rebuilt per arrival
        — O(active + arrivals) for the whole batch.
        """
        phase_load = self._phase_loads()
        limit = self.effective_admission_limit()
        streams: list[Stream] = []
        rejected = 0
        for obj in objects:
            try:
                streams.append(self._admit_checked(obj, phase_load, limit))
            except AdmissionError:
                rejected += 1
        return streams, rejected

    def _phase_loads(self) -> list[int]:
        """Rate-weighted load per read phase over the active streams."""
        width = self.config.stripe_width
        load = [0] * width
        for stream in self.streams.values():
            if stream.is_active:
                load[stream.phase % width] += stream.rate
        return load

    def _admit_checked(self, obj: MediaObject, phase_load: list[int],
                       limit: int) -> Stream:
        """The admission decision against caller-supplied load state.

        ``phase_load`` is updated in place on success so batch callers
        can reuse it; ``sum(phase_load)`` *is* the rate-weighted active
        load, which keeps single admissions on the same arithmetic.
        """
        if not self.layout.has_object(obj.name):
            raise AdmissionError(f"object {obj.name!r} is not on disk")
        if self._known_lost_tracks.get(obj.name):
            raise AdmissionError(
                f"object {obj.name!r} has tracks lost to a multiple-disk "
                "failure; tertiary reload required"
            )
        rate = self._rate_of(obj)
        load = sum(phase_load)
        if load + rate > limit:
            raise AdmissionError(
                f"at capacity: load {load} of "
                f"{limit} units, request needs {rate}"
            )
        # Least-loaded phase, lowest index first: plain round-robin skews
        # once streams complete unevenly; balancing on the current load
        # keeps every cycle's read volume equal, which the staggered
        # capacity bound assumes.
        width = len(phase_load)
        phase = min(range(width), key=lambda p: (phase_load[p], p))
        stream = Stream(
            stream_id=self._next_stream_id,
            obj=obj,
            admitted_cycle=self.cycle_index,
            phase=phase,
            rate=rate,
        )
        self._next_stream_id += 1
        self.streams[stream.stream_id] = stream
        phase_load[phase] += rate
        return stream

    def terminate_stream(self, stream_id: int) -> None:
        """Drop a stream (degradation of service)."""
        stream = self.streams[stream_id]
        if stream.is_active:
            stream.terminate()

    def stop_stream(self, stream_id: int) -> None:
        """A viewer leaves early: free the stream's capacity and buffers.

        Unlike termination this is voluntary; the front door can admit a
        replacement in the same cycle.
        """
        stream = self.streams[stream_id]
        if stream.is_active:
            stream.stop()

    def _mark_lost(self, stream_id: int, track: int,
                   cause: HiccupCause) -> None:
        stream = self.streams[stream_id]
        stream.mark_lost(track)
        self._lost_causes.setdefault((stream_id, track), cause)

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
        from repro.faults.domain import degraded_service_fraction
        fraction = degraded_service_fraction(
            self.array.spec, self.config.cycle_length_s, slowdown)
        self.array.degrade(disk_id, fraction)
        self._invalidate_plan_cache()
        self.on_disk_degraded(disk_id)
        self._enforce_degraded_capacity()

    def restore_disk(self, disk_id: int) -> None:
        """Return a fail-slow disk to full speed (idempotent)."""
        disk = self.array[disk_id]
        if disk.service_fraction >= 1.0 and not disk.is_failed:
            self.redundant_fault_commands += 1
            return
        self.array.restore(disk_id)
        self._invalidate_plan_cache()

    def inject_media_error(self, disk_id: int, position: int,
                           transient: bool = False) -> None:
        """Plant a media error on one track position of one disk."""
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
        disk is then gone.  Only runs the O(objects x groups) sweep while
        two or more disks are down.
        """
        failed = self.array.failed_ids
        lost: dict[str, set[int]] = {}
        if len(failed) < 2:
            return lost
        failed_set = set(failed)
        layout = self.layout
        for obj in layout.objects:
            name = obj.name
            for group in range(layout.group_count(obj)):
                members, parity_addr = layout.group_geometry(name, group)
                missing = [offset for offset, (disk_id, _pos)
                           in enumerate(members) if disk_id in failed_set]
                if not missing:
                    continue
                if len(missing) + (parity_addr[0] in failed_set) < 2:
                    continue
                tracks = layout.group_tracks(name, group)
                lost.setdefault(name, set()).update(
                    tracks[offset] for offset in missing)
        return lost

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
        self._ff_flat = None

    def _refresh_plan_cache(self) -> None:
        """Re-key the plan cache if the layout or array state moved on.

        The epoch pair catches *every* invalidation source — scheduler-level
        ``fail_disk``/``repair_disk``, direct ``array.fail`` calls, and
        content-manager placements — at one O(1) check per cycle (the
        array's fault index keeps the state epoch).

        When only the *placement* epoch moved and the layout can replay
        the gap from its delta log, the refresh is incremental: a
        ``place`` delta invalidates nothing (plans for other objects
        never reference the appended addresses) and a ``remove`` delta
        evicts just that object's plans and read tables.  Staging churn
        — the VoD tertiary swap-in/out cycle — therefore no longer costs
        a wholesale plan rebuild per placement.  A moved array epoch or
        an expired delta window still drops everything.
        """
        key = (self.layout.epoch, self.array.state_epoch)
        old = self._plan_cache_key
        if key == old:
            return
        if old is not None and old[1] == key[1]:
            deltas = self.layout.deltas_since(old[0])
            if deltas is not None:
                bridge = self._ff_tables_key == old
                for delta in deltas:
                    if delta.kind != "remove":
                        continue
                    self._plan_cache.pop(delta.name, None)
                    if bridge:
                        self._ff_tables.pop(delta.name, None)
                        self._ff_flat = None
                self._plan_cache_key = key
                if bridge:
                    self._ff_tables_key = key
                return
        self._plan_cache.clear()
        self._plan_cache_key = key
        self._ff_flat = None

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
        (:meth:`_fast_forward`) instead of the full per-read machinery.
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
        tables do not model (IB: proactive parity or mirror balancing).
        A subclass whose read/delivery hooks do work the tables cannot
        express must veto here, because the batched step skips hook
        dispatch entirely.
        """
        return True

    def _ff_classify(self) -> Optional[str]:
        """Why the current state refuses a fast-forward epoch, or None.

        Probes scheduler-wide state only; the per-stream checks run in
        the engine's single entry walk over the stream table.  Checked
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

    def _fast_forward(
            self, limit: int, reports: list[CycleReport],
            stop_on_completion: bool = False,
            arrivals: Optional[dict[int, tuple[MediaObject, ...]]] = None,
    ) -> tuple[int, int, int, bool]:
        """Advance up to ``limit`` cycles on the batched epoch engine.

        Refreshes the plan cache, asks :meth:`_ff_classify` whether the
        state allows an epoch at all, and runs :meth:`_ff_epoch`.
        Returns ``(cycles done, admitted, rejected, consumed)`` as the
        engine does; a refused entry returns zeros and tallies its
        reason once.
        """
        self._refresh_plan_cache()
        if limit <= 0:
            return 0, 0, 0, False
        reason = self._ff_classify()
        if reason is not None:
            self._ff_note(reason)
            return 0, 0, 0, False
        return self._ff_epoch(limit, reports, stop_on_completion, arrivals)

    def run_epoch(self, limit: int, stop_on_completion: bool = False) -> int:
        """Advance up to ``limit`` cycles on the fast-forward engine.

        The public entry point for drivers (chaos replay, reliability
        probes) that manage their own cycle loop: cycles are recorded on
        :attr:`report` exactly as scalar cycles would be, and the return
        value says how far the engine got — 0 means the current state is
        not fast-forwardable and the caller should fall back to
        :meth:`run_cycle`.
        """
        reports: list[CycleReport] = []
        return self._fast_forward(limit, reports, stop_on_completion)[0]

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

    def _ff_sync_stream(self, stream: Stream) -> None:
        """Rematerialise scheme-specific stream state at the exit of an
        epoch whose tables carry degraded columns."""

    def _ff_credit(self, reconstructions: int) -> None:
        """Fold an epoch's reconstruction count into scheme counters."""

    def _ff_object_geometry(self, obj: MediaObject,
                            ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                       np.ndarray, np.ndarray]:
        """Flat placement geometry for one object, as numpy arrays.

        ``(cnt, ptr, disks, parity, nxt)``: per group the data-member
        count, the member offset (``disks[ptr[g]:ptr[g+1]]`` are the
        group's data disks in track order), the parity disk, and the
        group-end read pointer.  Keyed on the layout epoch alone —
        failures move no data — so fail/repair/media transitions reuse
        it and only re-derive the cheap failure overlay on top.
        """
        epoch = self.layout.epoch
        if self._ff_geom_epoch != epoch:
            self._ff_geom = {}
            self._ff_geom_epoch = epoch
        entry = self._ff_geom.get(obj.name)
        if entry is None:
            stripe = self._stripe
            positions = -(-obj.num_tracks // stripe)
            geometry = self.layout.group_geometry
            name = obj.name
            sizes: list[int] = []
            flat: list[int] = []
            parity_ids: list[int] = []
            for position in range(positions):
                members, parity_addr = geometry(name, position)
                sizes.append(len(members))
                flat.extend(disk_id for disk_id, _pos in members)
                parity_ids.append(parity_addr[0])
            cnt = np.asarray(sizes, dtype=np.int64)
            ptr = np.zeros(positions + 1, dtype=np.int64)
            np.cumsum(cnt, out=ptr[1:])
            disks = np.asarray(flat, dtype=np.int64)
            parity = np.asarray(parity_ids, dtype=np.int64)
            entry = (cnt, ptr, disks, parity, ptr[1:])
            self._ff_geom[obj.name] = entry
        return entry

    def _ff_read_table(self, obj: MediaObject, failed: list[int]) -> tuple:
        """Per-object read table under the current failure set.

        ``(cnt, disks, next_pointers, divisor, degraded)``: a stream
        whose read pointer is ``p`` (with ``p % divisor == 0`` for
        group-at-a-time schemes) performs one read on each of the
        ``cnt[q]`` disks that position ``q = p // divisor`` owns in
        ``disks`` (positions in order), and its pointer becomes
        ``next_pointers[q]``.  ``degraded`` is None when no position is
        degraded: the healthy whole-group walk, straight from the cached
        geometry.  Otherwise it is ``(data_counts, parity_flags, valid,
        deg_pairs, acc_info)``: a degraded position's member slice
        includes the parity-fallback disk, *parity_flags* marks
        positions whose read carries one parity fetch **and** one
        same-cycle reconstruction, and *valid* is False where the scalar
        planner cannot recover the position (the engine bails before
        touching it).  ``deg_pairs`` are the ``(group,
        acquired-at-pointer)`` pairs that predict a stream's parity
        buffer; ``acc_info`` the accumulator open-windows (empty for
        group-at-a-time schemes).

        Built as a failure overlay on the cached geometry: only groups
        that actually lost a member are re-derived in Python, so a
        single failure in a large farm touches a handful of groups and
        every other object's table is a zero-copy view of its geometry.
        """
        cnt, ptr, disks, parity, nxt = self._ff_object_geometry(obj)
        if not failed:
            return cnt, disks, nxt, self._stripe, None
        if len(failed) == 1:
            down = disks == failed[0]
            parity_down = parity == failed[0]
        else:
            failed_arr = np.asarray(failed, dtype=np.int64)
            down = np.isin(disks, failed_arr)
            parity_down = np.isin(parity, failed_arr)
        if not bool(down.any()):
            # No data member down (a failed parity disk never appears
            # in a healthy group read): the healthy walk verbatim.
            return cnt, disks, nxt, self._stripe, None
        positions = len(cnt)
        fcnt = np.add.reduceat(down.astype(np.int64), ptr[:-1])
        recoverable = (fcnt == 1) & ~parity_down
        dat = cnt - fcnt
        par = np.zeros(positions, dtype=np.int64)
        val = np.ones(positions, dtype=bool)
        new_cnt = dat.copy()
        keep = ~down
        deg_pairs: list[tuple[int, int]] = []
        segments: list[np.ndarray] = []
        prev = 0
        for group in np.nonzero(fcnt > 0)[0]:
            lo, hi = int(ptr[group]), int(ptr[group + 1])
            if prev < lo:
                segments.append(disks[prev:lo])
            survivors = disks[lo:hi][keep[lo:hi]]
            if recoverable[group]:
                segments.append(np.append(survivors, parity[group]))
                new_cnt[group] += 1
                par[group] = 1
                deg_pairs.append((int(group), int(nxt[group])))
            else:
                # Unreconstructable group: the scalar path sheds the
                # stream here (data loss) — a state transition the
                # engine must never cross.
                segments.append(survivors)
                val[group] = False
            prev = hi
        if prev < len(disks):
            segments.append(disks[prev:])
        return (new_cnt, np.concatenate(segments), nxt, self._stripe,
                (dat, par, val, tuple(deg_pairs), {}))

    def _ff_flat_tables(self, objects: list[MediaObject]) -> tuple:
        """Concatenated read tables for a set of objects.

        Returns ``(counts, offsets, member_disks, next_pointers,
        pos_base, divisor, degraded)``: the per-object tables of
        :meth:`_ff_read_table` concatenated position by position, with
        ``pos_base`` each object's first position.  ``degraded`` is None
        when no object has a degraded position; otherwise it holds the
        engine's reconstruction and buffer-accounting columns,
        ``(data_counts, parity_flags, valid, pheld, prel, acch,
        ptr_base, pairs_by_name)``, with healthy objects at the neutral
        values.  The pointer-indexed prefix sums (``ptr_base`` locates
        each object's) reproduce ``buffered_track_count``
        arithmetically: with read pointer ``r`` and delivery pointer
        ``d``, a canonical stream holds ``pheld[r] - prel[d]`` parity
        blocks and ``acch[r]`` open accumulators (acquired at the
        group's end pointer, released once delivery passes the group).

        Per-object tables are cached against the plan-cache key, so
        every fail/repair/media transition re-derives them; the
        concatenation is memoized against the object tuple, so an epoch
        re-entering with the same working set pays nothing.
        """
        if self._ff_tables_key != self._plan_cache_key:
            self._ff_tables = {}
            self._ff_tables_key = self._plan_cache_key
            self._ff_flat = None
            self._ff_flat_names = None
        names = tuple(obj.name for obj in objects)
        if self._ff_flat is not None and self._ff_flat_names == names:
            return self._ff_flat
        cache = self._ff_tables
        stripe = self._stripe
        failed = self.array.failed_ids
        per_obj = []
        for obj in objects:
            entry = cache.get(obj.name)
            if entry is None:
                cnt, disks, nxt, divisor, deg = self._ff_read_table(obj,
                                                                    failed)
                if deg is not None:
                    dat, par, val, deg_pairs, acc_info = deg
                    tracks = obj.num_tracks
                    diff_held = np.zeros(tracks + 2, dtype=np.int64)
                    diff_rel = np.zeros(tracks + 2, dtype=np.int64)
                    for group, acquired in deg_pairs:
                        diff_held[acquired] += 1
                        released = (group + 1) * stripe
                        if released <= tracks:
                            diff_rel[released] += 1
                    acch = np.zeros(tracks + 1, dtype=np.int64)
                    for lo, hi in acc_info.values():
                        acch[lo:hi + 1] += 1
                    deg = (dat, par, val, np.cumsum(diff_held)[:tracks + 1],
                           np.cumsum(diff_rel)[:tracks + 1], acch,
                           deg_pairs)
                entry = (cnt, disks, nxt, divisor, deg)
                cache[obj.name] = entry
            per_obj.append(entry)
        pos_base: list[int] = []
        position_total = 0
        for entry in per_obj:
            pos_base.append(position_total)
            position_total += len(entry[0])
        counts = np.concatenate([e[0] for e in per_obj])
        offsets = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        member_disks = np.concatenate([e[1] for e in per_obj])
        next_pointers = np.concatenate([e[2] for e in per_obj])
        degraded = None
        if any(e[4] is not None for e in per_obj):
            # Neutral columns first: every member is data, no parity,
            # every position valid, nothing held beyond the data range.
            data_counts = counts.copy()
            parity_flags = np.zeros(position_total, dtype=np.int64)
            valid = np.ones(position_total, dtype=bool)
            ptr_base: list[int] = []
            pointer_total = 0
            for obj in objects:
                ptr_base.append(pointer_total)
                pointer_total += obj.num_tracks + 1
            pheld = np.zeros(pointer_total, dtype=np.int64)
            prel = np.zeros(pointer_total, dtype=np.int64)
            acch = np.zeros(pointer_total, dtype=np.int64)
            pairs_by_name: dict[str, tuple[tuple[int, int], ...]] = {}
            for i, (obj, entry) in enumerate(zip(objects, per_obj)):
                deg = entry[4]
                if deg is None:
                    pairs_by_name[obj.name] = ()
                    continue
                lo, hi = pos_base[i], pos_base[i] + len(entry[0])
                data_counts[lo:hi] = deg[0]
                parity_flags[lo:hi] = deg[1]
                valid[lo:hi] = deg[2]
                lo, hi = ptr_base[i], ptr_base[i] + obj.num_tracks + 1
                pheld[lo:hi] = deg[3]
                prel[lo:hi] = deg[4]
                acch[lo:hi] = deg[5]
                pairs_by_name[obj.name] = deg[6]
            degraded = (data_counts, parity_flags, valid, pheld, prel, acch,
                        ptr_base, pairs_by_name)
        flat = (counts, offsets, member_disks, next_pointers, pos_base,
                per_obj[0][3], degraded)
        self._ff_flat = flat
        self._ff_flat_names = names
        return flat

    def _ff_epoch(
            self, limit: int, reports: list[CycleReport],
            stop_on_completion: bool = False,
            arrivals: Optional[dict[int, tuple[MediaObject, ...]]] = None,
    ) -> tuple[int, int, int, bool]:
        """The batched epoch engine behind every fast-forward entry.

        Stream state lives in numpy row arrays for the whole epoch; each
        cycle is a handful of whole-array operations over the read
        tables of :meth:`_ff_flat_tables` (delivery quotas, table
        gathers, one ``bincount`` for per-disk loads) staged on scratch
        state, so a bail leaves no trace.

        The row arrays are a pool sized to the live population, not to
        the window's arrivals.  When a cycle's batch would not fit, the
        engine first *retires* the rows that finished in earlier
        committed cycles — a finished row's state is final, so it is
        written back exactly as the epoch boundary would write it, with
        its reconstruction credit and buffer peak folded — then moves
        the survivors to the front and grows the pool geometrically only
        if it is still full.  Per-cycle cost therefore follows the live
        rows, not the admissions so far.  The remaining rows, the disk
        counters and the tracker samples are written back at the epoch
        boundary, so the post-run state is indistinguishable from a
        scalar run.

        One mechanism covers every stable state:

        * **healthy** is the degenerate case with no failed disk: no
          table carries degraded columns, so the engine skips the
          per-cycle validity check, reconstruction counting and
          prefix-sum buffer arithmetic, and the per-entry parity-buffer
          check and write-back;
        * **degraded** — failed disks in pairwise-disjoint parity groups
          (:meth:`_ff_classify` proves disjointness via the empty
          lost-track set): reconstruction reads are extra rows in the
          tables (the parity-fallback disk joins the group's members),
          and reconstruction commits are pure arithmetic (a degraded
          group read completes its rebuild in the same cycle, since
          every survivor is resident by construction);
        * **rebuilding** — every in-flight online rebuild advances as a
          vectorised cursor fed with the cycle's idle slots, in scalar
          rebuilder order, sharing one idle budget, exactly like
          :meth:`_rebuild_phase`;
        * **mixed rates** — a rate-``r`` row takes up to ``r`` table
          steps per cycle, each gated like the first, as the scalar
          planners plan ``rate`` group reads or quanta per stream;
        * **churn** — each ``arrivals`` cycle admits its batch through
          the *same* :meth:`_admit_checked` decision the scalar front
          door uses, against :meth:`effective_admission_limit` (constant
          for the epoch: every ``_capacity_penalty`` is a pure function
          of array/layout/degraded-cluster state, which only changes on
          the transitions the engine bails on); accepted streams join
          the row arrays in place at read pointer 0, which is trivially
          canonical.

        The engine bails only on state transitions: a rebuild that could
        complete, a stream crossing an unreconstructable position, a
        mid-group read pointer, an imminent hiccup or a slot overflow.
        With ``stop_on_completion`` it also stops right after a cycle in
        which a stream completed, so drivers that re-admit per completed
        object observe scalar admission timing.

        Returns ``(cycles done, admitted, rejected, consumed)`` where
        ``consumed`` means the *current* cycle's arrivals were already
        admitted before a bail, so the scalar fallback must not
        re-admit them.
        """
        width = self.config.stripe_width
        # -- one walk over the stream table: canonical-state checks, the
        #    live rows and their objects, status counts, phase loads ----
        rows: list[Stream] = []
        distinct: dict[str, int] = {}
        objects: list[MediaObject] = []
        phase_load = [0] * width
        parity_held = False
        active = terminated = 0
        for stream in self.streams.values():
            status = stream.status
            if status is StreamStatus.ACTIVE:
                active += 1
            elif status is StreamStatus.TERMINATED:
                terminated += 1
            if not stream.is_active:
                continue
            # The data buffer must be the contiguous range
            # [next_delivery, next_read): reconstruction lands a failed
            # member's track in the cycle its group is read, and holes
            # always come with lost-track state.
            if stream.lost_tracks or len(stream.buffer) != (
                    stream.next_read_track - stream.next_delivery_track) \
                    or not self._ff_stream_ok(stream):
                self._ff_note("stream-state")
                return 0, 0, 0, False
            if stream.parity_buffer:
                parity_held = True
            rows.append(stream)
            phase_load[stream.phase % width] += stream.rate
            name = stream.object.name
            if name not in distinct:
                distinct[name] = len(objects)
                objects.append(stream.object)
        # Placed arrivals per window cycle: the most rows its batch adds.
        placed: dict[int, int] = {}
        if arrivals:
            # Working set: live objects plus every placed arrival in the
            # window (unplaced ones are rejected in-engine).
            start_cycle = self.cycle_index
            has_object = self.layout.has_object
            for cycle, batch in arrivals.items():
                if not start_cycle <= cycle < start_cycle + limit:
                    continue
                for obj in batch:
                    if not has_object(obj.name):
                        continue
                    placed[cycle] = placed.get(cycle, 0) + 1
                    if obj.name not in distinct:
                        distinct[obj.name] = len(objects)
                        objects.append(obj)
        if objects:
            flat = self._ff_flat_tables(objects)
        else:
            # No live streams and no placed arrivals in the window: every
            # batched request is a guaranteed rejection and the cycles
            # themselves are empty.
            zeros = np.zeros(0, dtype=np.int64)
            flat = (zeros, np.zeros(1, dtype=np.int64), zeros, zeros, [], 1,
                    None)
        (counts, offsets, member_disks, next_pointers, pos_base, divisor,
         degraded) = flat
        stripe = self._stripe
        if degraded is None:
            if parity_held:
                # No position reads parity, so no held parity is canonical.
                self._ff_note("stream-state")
                return 0, 0, 0, False
        else:
            (data_counts, parity_flags, valid, pheld, prel, acch, ptr_base,
             pairs_by_name) = degraded
            for stream in rows:
                pointer = stream.next_read_track
                floor = stream.next_delivery_track // stripe
                predicted = [g for g, acquired
                             in pairs_by_name[stream.object.name]
                             if acquired <= pointer and g >= floor]
                if sorted(stream.parity_buffer) != predicted:
                    self._ff_note("stream-state")
                    return 0, 0, 0, False
        rebuilders = list(self.rebuilders)
        for rebuilder in rebuilders:
            if rebuilder.prepare_fast_plan() is None:
                self._ff_note("rebuild-veto")
                return 0, 0, 0, False
        n = len(rows)
        num_disks = len(self.array.disks)
        slots = self.config.slots_per_disk
        k_prime = self.config.k_prime
        base_quota = self._base_quota
        tracker = self.tracker
        # Pool leases change only on fail/repair: constant for the epoch.
        pool_now = self._extra_buffer_tracks()
        limit_units = self.effective_admission_limit() if arrivals else 0
        # Row pool: rows [0, len(rows)) are the epoch's streams, rows past
        # them are neutral (not live, not reading).  It starts at twice
        # the live rows but never above the window's worst case (every
        # placed arrival admitted), so a window with no streams and no
        # placed arrivals allocates nothing.
        size = min(n + sum(placed.values()),
                   max(_FF_ROW_FLOOR, _FF_ROW_GROWTH * n))
        (obj_base, held_base, next_read, next_del, num_tracks, rate, start,
         quota, pace_rate, pace_base, phase_mod, phase_val, unpaced,
         admitted_mask, live_mask, deliv_delta, recon_delta, peak0,
         peak) = _ff_row_pool(size)
        obj_base[:n] = np.fromiter(
            (pos_base[distinct[s.object.name]] for s in rows),
            dtype=np.int64, count=n)
        if degraded is not None:
            held_base[:n] = np.fromiter(
                (ptr_base[distinct[s.object.name]] for s in rows),
                dtype=np.int64, count=n)
        next_read[:n] = np.fromiter((s.next_read_track for s in rows),
                                    dtype=np.int64, count=n)
        next_del[:n] = np.fromiter((s.next_delivery_track for s in rows),
                                   dtype=np.int64, count=n)
        num_tracks[:n] = np.fromiter((s.num_tracks for s in rows),
                                     dtype=np.int64, count=n)
        rate[:n] = np.fromiter((s.rate for s in rows), dtype=np.int64,
                               count=n)
        start[:n] = np.fromiter(
            (-1 if s.delivery_start_cycle is None
             else s.delivery_start_cycle for s in rows),
            dtype=np.int64, count=n)
        quota[:n] = np.fromiter(
            (k_prime * s.rate if base_quota
             else self.deliveries_per_cycle(s) for s in rows),
            dtype=np.int64, count=n)
        gates = [self._ff_gate_params(s) for s in rows]
        pace_rate[:n] = np.fromiter((g[0] for g in gates), dtype=np.int64,
                                    count=n)
        pace_base[:n] = np.fromiter((g[1] for g in gates), dtype=np.int64,
                                    count=n)
        phase_mod[:n] = np.fromiter((g[2] for g in gates), dtype=np.int64,
                                    count=n)
        phase_val[:n] = np.fromiter((g[3] for g in gates), dtype=np.int64,
                                    count=n)
        unpaced[:n] = pace_rate[:n] == 0
        paced = not bool(unpaced.all())
        gated = not bool((phase_mod == 1).all())
        max_rate = int(rate.max(initial=1))
        admitted_mask[:n] = np.fromiter(
            (s.status is StreamStatus.ADMITTED for s in rows),
            dtype=bool, count=n)
        live_mask[:n] = True
        peak0[:n] = np.fromiter(
            (tracker.stream_peak(s.stream_id) for s in rows),
            dtype=np.int64, count=n)
        peak[:n] = peak0[:n]

        def write_back(sel: np.ndarray, cycle_samples: list[int]) -> None:
            """Write rows ``sel`` back to their stream objects, credit
            their reconstructions and fold their peaks with
            ``cycle_samples`` into the tracker.  Retirement and the epoch
            boundary share it, so a retired row lands exactly as the
            boundary would land it."""
            picked = sel.tolist()
            reads = next_read[sel].tolist()
            delivers = next_del[sel].tolist()
            delivered = deliv_delta[sel].tolist()
            starts = start[sel].tolist()
            waiting = admitted_mask[sel].tolist()
            live = live_mask[sel].tolist()
            rebuilt = recon_delta[sel].tolist()
            for j, i in enumerate(picked):
                stream = rows[i]
                stream.next_read_track = reads[j]
                stream.next_delivery_track = delivers[j]
                stream.delivered_tracks += delivered[j]
                if stream.delivery_start_cycle is None and starts[j] >= 0:
                    stream.delivery_start_cycle = starts[j]
                if stream.status is StreamStatus.ADMITTED \
                        and not waiting[j]:
                    stream.activate()
                if live[j]:
                    stream.buffer = dict.fromkeys(
                        range(delivers[j], reads[j]), META_PAYLOAD)
                    if degraded is not None:
                        floor = delivers[j] // stripe
                        stream.parity_buffer = {
                            g: META_PAYLOAD for g, acquired
                            in pairs_by_name[stream.object.name]
                            if acquired <= reads[j] and g >= floor}
                else:
                    stream.complete()
                if degraded is not None:
                    stream.reconstructed_tracks += rebuilt[j]
                    self._ff_sync_stream(stream)
            if degraded is not None:
                self._ff_credit(sum(rebuilt))
            tracker.fold_epoch(
                cycle_samples,
                {rows[i].stream_id: int(peak[i])
                 for i in sel[peak[sel] > peak0[sel]].tolist()})

        total_loads = np.zeros(num_disks, dtype=np.int64)
        failed_ids = np.asarray(self.array.failed_ids, dtype=np.int64)
        samples: list[int] = []
        done = admitted_n = rejected_n = 0
        consumed = False
        bail: Optional[str] = None
        while done < limit:
            cycle = self.cycle_index
            if rebuilders and any(rb.total_blocks - rb.blocks_rebuilt
                                  <= rb.writes_per_cycle
                                  for rb in rebuilders):
                # A rebuild could finish this cycle.  Completion is a
                # state transition with in-cycle side effects the engine
                # does not model (repair_disk releases pool leases and
                # clears scheme degraded state *before* the cycle's
                # buffer sample) — hand the tail to the scalar path
                # before this cycle's batch is admitted.
                bail = "rebuild-complete"
                break
            # -- admit this cycle's batch through the scalar decision -----
            batch = arrivals.get(cycle) if arrivals else None
            if batch:
                consumed = True
                need = len(rows) + placed.get(cycle, 0)
                if need > size:
                    # -- make room: retire the rows that finished in
                    #    committed cycles, move the survivors to the
                    #    front, grow only if the pool is still full ------
                    write_back(np.flatnonzero(~live_mask[:len(rows)]), [])
                    keep = np.flatnonzero(live_mask[:len(rows)])
                    rows = [rows[i] for i in keep.tolist()]
                    need = len(rows) + placed.get(cycle, 0)
                    if need > size:
                        size = max(need, _FF_ROW_GROWTH * size)
                    (obj_base, held_base, next_read, next_del, num_tracks,
                     rate, start, quota, pace_rate, pace_base, phase_mod,
                     phase_val, unpaced, admitted_mask, live_mask,
                     deliv_delta, recon_delta, peak0,
                     peak) = _ff_row_pool(size, (
                         obj_base, held_base, next_read, next_del,
                         num_tracks, rate, start, quota, pace_rate,
                         pace_base, phase_mod, phase_val, unpaced,
                         admitted_mask, live_mask, deliv_delta,
                         recon_delta, peak0, peak), keep)
                for obj in batch:
                    try:
                        stream = self._admit_checked(obj, phase_load,
                                                     limit_units)
                    except AdmissionError:
                        rejected_n += 1
                        continue
                    admitted_n += 1
                    i = len(rows)
                    rows.append(stream)
                    obj_base[i] = pos_base[distinct[obj.name]]
                    if degraded is not None:
                        held_base[i] = ptr_base[distinct[obj.name]]
                    num_tracks[i] = stream.num_tracks
                    rate[i] = stream.rate
                    max_rate = max(max_rate, stream.rate)
                    quota[i] = (k_prime * stream.rate if base_quota
                                else self.deliveries_per_cycle(stream))
                    gate = self._ff_gate_params(stream)
                    pace_rate[i], pace_base[i] = gate[0], gate[1]
                    phase_mod[i], phase_val[i] = gate[2], gate[3]
                    if gate[0]:
                        unpaced[i] = False
                        paced = True
                    if gate[2] != 1:
                        gated = True
                    admitted_mask[i] = True
                    live_mask[i] = True
                    peak0[i] = tracker.stream_peak(stream.stream_id)
                    peak[i] = peak0[i]
            # -- stage (no mutation yet, so a bail leaves no trace) -------
            started = live_mask & (start >= 0) & (start <= cycle)
            due = np.where(started,
                           np.minimum(quota, num_tracks - next_del), 0)
            if bool((due > next_read - next_del).any()):
                bail = "imminent-hiccup"
                break
            reading = live_mask & (next_read < num_tracks)
            if gated:
                reading &= (cycle % phase_mod) == phase_val
            if paced:
                pace = (cycle + 1 - pace_base) * pace_rate
                reading &= unpaced | (next_read < pace)
            # Table steps: a rate-r row takes up to r, each gated like
            # the first on the pointer the previous step left.
            pointer = next_read
            steps: list[tuple[np.ndarray, np.ndarray]] = []
            for step in range(max_rate):
                if step:
                    reading = reading & (rate > step) \
                        & (pointer < num_tracks)
                    if paced:
                        reading &= unpaced | (pointer < pace)
                    if not reading.any():
                        break
                if divisor > 1 and bool(
                        (reading & (pointer % divisor != 0)).any()):
                    bail = "mid-group-pointer"  # the scalar path raises
                    break
                idx = np.where(reading, obj_base + pointer // divisor, 0)
                if degraded is not None \
                        and bool((reading & ~valid[idx]).any()):
                    bail = "unrecoverable-group"  # scalar sheds: transition
                    break
                steps.append((reading, idx))
                pointer = np.where(reading, next_pointers[idx], pointer)
            if bail is not None:
                break
            r_idx = (steps[0][1][steps[0][0]] if len(steps) == 1
                     else np.concatenate([idx[mask] for mask, idx in steps]))
            r_cnt = counts[r_idx]
            planned_total = int(r_cnt.sum())
            loads = None
            if planned_total:
                ends = np.cumsum(r_cnt)
                within = np.arange(planned_total) \
                    - np.repeat(ends - r_cnt, r_cnt)
                disk_ids = member_disks[np.repeat(offsets[r_idx], r_cnt)
                                        + within]
                loads = np.bincount(disk_ids, minlength=num_disks)
                if int(loads.max(initial=0)) > slots:
                    bail = "slot-overflow"  # scalar drops / cascades
                    break
                total_loads += loads
            # -- commit ---------------------------------------------------
            parity_cycle = 0
            if degraded is not None:
                parity_cycle = int(parity_flags[r_idx].sum())
                for mask, idx in steps:
                    recon_delta += np.where(mask, parity_flags[idx], 0)
            newly = admitted_mask & (due > 0)
            if bool(newly.any()):
                active += int(newly.sum())
                admitted_mask &= ~newly
            # The delivery clock starts the cycle after a stream's first
            # *data* read; parity fetches never start it.
            data = counts if degraded is None else data_counts
            mask, idx = steps[0]
            got = mask & (data[idx] > 0)
            for mask, idx in steps[1:]:
                got |= mask & (data[idx] > 0)
            first_read = (start < 0) & got
            if bool(first_read.any()):
                start[first_read] = cycle + 1
            next_del += due
            deliv_delta += due
            next_read = pointer
            finished = live_mask & (next_del >= num_tracks)
            finished_any = bool(finished.any())
            if finished_any:
                active -= int(finished.sum())
                live_mask &= ~finished
                # Completed rows free their capacity for later batches.
                for i in np.nonzero(finished)[0]:
                    row = rows[int(i)]
                    phase_load[row.phase % width] -= row.rate
            # -- rebuild: lowest priority, idle slots only ----------------
            blocks = 0
            if rebuilders:
                idle = np.full(num_disks, slots, dtype=np.int64)
                if loads is not None:
                    idle -= loads
                idle[failed_ids] = 0
                for rebuilder in rebuilders:
                    blocks += rebuilder.fast_step(idle, total_loads)
            if degraded is None:
                held = np.where(live_mask, next_read - next_del, 0)
            else:
                pointer_idx = held_base + next_read
                held = np.where(live_mask,
                                next_read - next_del + pheld[pointer_idx]
                                - prel[held_base + next_del]
                                + acch[pointer_idx], 0)
            np.maximum(peak, held, out=peak)
            buffered = int(held.sum()) + pool_now
            samples.append(buffered)
            report = CycleReport(cycle=cycle)
            report.reads_planned = planned_total
            report.reads_executed = planned_total
            report.parity_reads = parity_cycle
            report.reconstructions = parity_cycle
            report.blocks_rebuilt = blocks
            report.tracks_delivered = int(due.sum())
            report.streams_active = active
            report.streams_terminated = terminated
            report.buffered_tracks = buffered
            report.pool_tracks_in_use = pool_now
            reports.append(report)
            self.report.record(report)
            self.cycle_index = cycle + 1
            done += 1
            consumed = False
            if stop_on_completion and finished_any:
                bail = "stream-completed"
                break
        if done or admitted_n:
            # -- write the epoch's state back to the Python objects -------
            write_back(np.arange(len(rows)), samples)
            disks = self.array.disks
            for disk_id in np.nonzero(total_loads)[0]:
                disks[int(disk_id)].reads += int(total_loads[disk_id])
            self.report.ff_engaged_cycles += done
        if done:
            self._last_executed = None
        self._ff_note(bail)
        return done, admitted_n, rejected_n, consumed

    # -- churn -------------------------------------------------------------------------

    def run_churn(self, count: int,
                  arrivals: dict[int, tuple[MediaObject, ...]],
                  fast_forward: bool = True,
                  schedule: Optional["FaultSchedule"] = None,
                  ) -> tuple[list[CycleReport], int, int]:
        """Run ``count`` cycles with per-cycle arrivals and scripted faults.

        The one loop that mixes fault events, arrival batches, engine
        epochs and scalar cycles.  ``arrivals`` maps *absolute*
        cycle indices to the objects requested in that cycle.  Each
        cycle first applies the ``schedule``'s events due at its top.
        With ``fast_forward`` on, the epoch engine (:meth:`_fast_forward`)
        then runs up to :meth:`FaultSchedule.epoch_end`, admitting each
        batch in-engine.  A cycle the engine did not reach runs scalar:
        :meth:`admit_batch` at the front door, then :meth:`run_cycle`;
        with ``fast_forward`` off every cycle does.  Results are
        bit-identical either way.  Returns ``(reports, admitted,
        rejected)``.
        """
        reports: list[CycleReport] = []
        admitted = rejected = 0
        end = self.cycle_index + count
        while self.cycle_index < end:
            cycle = self.cycle_index
            if schedule is not None:
                schedule.apply(self, cycle)
            consumed = False
            if fast_forward:
                stop = (end if schedule is None
                        else schedule.epoch_end(cycle, end))
                if stop > cycle:
                    _done, a, r, consumed = self._fast_forward(
                        stop - cycle, reports, arrivals=arrivals)
                    admitted += a
                    rejected += r
                    if self.cycle_index == stop:
                        continue
            batch = arrivals.get(self.cycle_index)
            if batch and not consumed:
                streams, r = self.admit_batch(list(batch))
                admitted += len(streams)
                rejected += r
            reports.append(self.run_cycle())
        return reports, admitted, rejected

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
        active = terminated = 0
        active_status = StreamStatus.ACTIVE
        terminated_status = StreamStatus.TERMINATED
        for stream in self.streams.values():
            if stream.status is active_status:
                active += 1
            elif stream.status is terminated_status:
                terminated += 1
        report.streams_active = active
        report.streams_terminated = terminated
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
