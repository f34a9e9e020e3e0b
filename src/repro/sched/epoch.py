"""The batched epoch engine behind every fast-forward entry.

Stream state lives in the numpy columns of a :class:`RowPool` for the
whole epoch; each cycle is a handful of whole-array operations over the
read tables of :func:`flat_tables` (delivery quotas, table gathers, one
``bincount`` for per-disk loads), staged on scratch state so a bail
leaves no trace.  :func:`run` is the one entry; its exit writes the
state back, so the post-run state is indistinguishable from a scalar
run.

One mechanism covers every stable state:

* **healthy** is the degenerate case with no failed disk: no table
  carries degraded columns, so the engine skips the per-cycle validity
  check, reconstruction counting and prefix-sum buffer arithmetic, and
  the parity-buffer write-back;
* **degraded** — failed disks in pairwise-disjoint parity groups
  (``_ff_classify`` proves disjointness via the empty lost-track set):
  reconstruction reads are extra rows in the tables (the parity-fallback
  disk joins the group's members), and reconstruction commits are pure
  arithmetic (a degraded group read completes its rebuild in the same
  cycle, since every survivor is resident by construction);
* **rebuilding** — every in-flight online rebuild advances as a
  vectorised cursor fed with the cycle's idle slots, in scalar rebuilder
  order, sharing one idle budget, exactly like ``_rebuild_phase``;
* **mixed rates** — a rate-``r`` row takes up to ``r`` table steps per
  cycle, each gated like the first, as the scalar planners plan ``rate``
  group reads or quanta per stream;
* **churn** — each cycle admits its batch through the *same*
  ``_admit_checked`` decision the scalar front door uses, against
  ``effective_admission_limit`` (constant for the epoch: every
  ``_capacity_penalty`` is a pure function of array/layout/
  degraded-cluster state, which only changes on the transitions the
  engine bails on); accepted streams join the pool at read pointer 0,
  which is trivially canonical.  A trace's batch is its ``arrivals``
  entry, a :class:`ClosedLoop`'s every title with no row in service.

The engine bails only on state transitions: a rebuild that could
complete, a stream crossing an unreconstructable position, a mid-group
read pointer, an imminent hiccup or a slot overflow.

The scheduler keeps the rest: the plan-cache refresh, ``_ff_classify``
and ``_ff_note``, the scheme hooks (``_fast_forward_ready``,
``_ff_gate_params``, ``_ff_stream_ok``, ``_ff_sync_stream``,
``_ff_credit``, ``_ff_read_table``) and the cache slots.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from repro.errors import AdmissionError
from repro.media.objects import MediaObject
from repro.parity.xor import META_PAYLOAD
from repro.server.metrics import CycleReport
from repro.server.stream import Stream, StreamStatus

if TYPE_CHECKING:
    from repro.sched.base import CycleScheduler

#: Row pool sizing: a pool starts at ``_ROW_GROWTH`` times the live rows
#: (at least ``_ROW_FLOOR``, at most the window's worst case) and grows by
#: that factor when retiring finished rows leaves no room for a batch.
_ROW_FLOOR = 64
_ROW_GROWTH = 2


@dataclass(frozen=True, slots=True)
class ClosedLoop:
    """Closed-loop arrivals: at each cycle top, every title with no
    stream in service arrives again, in catalog order."""

    titles: tuple[MediaObject, ...]

    def missing(self, serving: Counter[str]) -> tuple[MediaObject, ...]:
        """One top's batch: the titles with no stream in ``serving``."""
        return tuple(obj for obj in self.titles if not serving[obj.name])


#: Request batches by absolute cycle, or a closed loop.
Arrivals = Union[dict[int, tuple[MediaObject, ...]], ClosedLoop]


def object_geometry(sched: CycleScheduler, obj: MediaObject,
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                               np.ndarray, np.ndarray]:
    """Flat placement geometry for one object, as numpy arrays.

    ``(cnt, ptr, disks, parity, nxt)``: per group the data-member
    count, the member offset (``disks[ptr[g]:ptr[g+1]]`` are the
    group's data disks in track order), the parity disk, and the
    group-end read pointer.  ``disks`` and ``parity`` are the layout's
    read-only placement columns themselves — failures move no data —
    so fail/repair/media transitions only re-derive the cheap failure
    overlay on top.
    """
    placement = sched.layout.placement(obj.name)
    disks = placement.data_disk
    ptr = np.minimum(np.arange(len(placement.parity_disk) + 1,
                               dtype=np.int64) * sched._stripe, len(disks))
    return np.diff(ptr), ptr, disks, placement.parity_disk, ptr[1:]


def read_table(sched: CycleScheduler, obj: MediaObject,
               failed: list[int]) -> tuple:
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
    group-at-a-time schemes; NC's per-track table fills them).

    Built as a failure overlay on the cached geometry: only groups
    that actually lost a member are re-derived in Python, so a
    single failure in a large farm touches a handful of groups and
    every other object's table is a zero-copy view of its geometry.
    """
    cnt, ptr, disks, parity, nxt = object_geometry(sched, obj)
    stripe = sched._stripe
    if not failed:
        return cnt, disks, nxt, stripe, None
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
        return cnt, disks, nxt, stripe, None
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
    return (new_cnt, np.concatenate(segments), nxt, stripe,
            (dat, par, val, tuple(deg_pairs), {}))


def flat_tables(sched: CycleScheduler, objects: list[MediaObject]) -> tuple:
    """Concatenated read tables for a set of objects.

    Returns ``(counts, offsets, member_disks, next_pointers, bases,
    divisor, degraded, pairs)``: the per-object tables of
    ``_ff_read_table`` concatenated position by position, with
    ``bases`` mapping each object to its first position and its first
    prefix-sum pointer.  ``degraded`` and ``pairs`` are None when no
    object has a degraded position; otherwise ``degraded`` holds the
    engine's reconstruction and buffer-accounting columns,
    ``(data_counts, parity_flags, valid, pheld, prel, acch)``, with
    healthy objects at the neutral values, and ``pairs`` each object's
    ``(group, acquired-at-pointer)`` pairs (what a canonical stream of
    it holds in parity).  The pointer-indexed prefix sums
    reproduce ``buffered_track_count`` arithmetically: with read
    pointer ``r`` and delivery pointer ``d``, a canonical stream holds
    ``pheld[r] - prel[d]`` parity blocks and ``acch[r]`` open
    accumulators (acquired at the group's end pointer, released once
    delivery passes the group).

    Per-object tables are cached against the plan-cache key, so
    every fail/repair/media transition and every placement change
    re-derives them; the
    concatenation is memoized against the object tuple, so an epoch
    re-entering with the same working set pays nothing.
    """
    if sched._ff_tables_key != sched._plan_cache_key:
        sched._ff_tables = {}
        sched._ff_tables_key = sched._plan_cache_key
        sched._ff_flat = None
        sched._ff_flat_names = None
    names = tuple(obj.name for obj in objects)
    if sched._ff_flat is not None and sched._ff_flat_names == names:
        return sched._ff_flat
    cache = sched._ff_tables
    stripe = sched._stripe
    failed = sched.array.failed_ids
    per_obj = []
    for obj in objects:
        entry = cache.get(obj.name)
        if entry is None:
            cnt, disks, nxt, divisor, deg = sched._ff_read_table(obj, failed)
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
                       np.cumsum(diff_rel)[:tracks + 1], acch, deg_pairs)
            entry = (cnt, disks, nxt, divisor, deg)
            cache[obj.name] = entry
        per_obj.append(entry)
    bases: dict[str, tuple[int, int]] = {}
    position_total = pointer_total = 0
    for obj, entry in zip(objects, per_obj):
        bases[obj.name] = (position_total, pointer_total)
        position_total += len(entry[0])
        pointer_total += obj.num_tracks + 1
    counts = np.concatenate([e[0] for e in per_obj])
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    member_disks = np.concatenate([e[1] for e in per_obj])
    next_pointers = np.concatenate([e[2] for e in per_obj])
    degraded: Optional[tuple] = None
    pairs: Optional[dict[str, tuple[tuple[int, int], ...]]] = None
    if any(e[4] is not None for e in per_obj):
        # Neutral columns first: every member is data, no parity,
        # every position valid, nothing held beyond the data range.
        data_counts = counts.copy()
        parity_flags = np.zeros(position_total, dtype=np.int64)
        valid = np.ones(position_total, dtype=bool)
        held = np.zeros((3, pointer_total), dtype=np.int64)
        pairs = {}
        for obj, entry in zip(objects, per_obj):
            deg = entry[4]
            pairs[obj.name] = () if deg is None else deg[6]
            if deg is not None:
                lo, at = bases[obj.name]
                hi = lo + len(entry[0])
                data_counts[lo:hi], parity_flags[lo:hi], valid[lo:hi] = deg[:3]
                held[:, at:at + obj.num_tracks + 1] = deg[3:6]
        degraded = (data_counts, parity_flags, valid, *held)
    flat = (counts, offsets, member_disks, next_pointers, bases,
            per_obj[0][3], degraded, pairs)
    sched._ff_flat = flat
    sched._ff_flat_names = names
    return flat


def _held_parity(pairs: tuple[tuple[int, int], ...], read: int,
                 delivered: int, stripe: int) -> list[int]:
    """The parity groups a canonical stream holds: acquired by its read
    pointer, not yet released by its delivery pointer."""
    floor = delivered // stripe
    return [g for g, acquired in pairs if acquired <= read and g >= floor]


class RowPool:
    """The epoch's streams as numpy row columns, sized to the live ones.

    Every array slot is a per-row column.  Rows ``[0, len(streams))``
    hold the epoch's streams in admission order; every row past them
    holds its column's neutral value (not live, not reading, nothing
    staged), so whole-array steps need no mask for the tail.  One
    :meth:`fill` writes the entry rows and each cycle's admitted batch;
    :meth:`make_room` retires the rows that finished in committed cycles
    (a finished row's state is final, so :meth:`write_back` lands it as
    the epoch exit would), so per-cycle cost follows the live rows, not
    the admissions so far.
    """

    __slots__ = (
        "sched", "bases", "pairs", "streams", "paced", "gated", "max_rate",
        "obj_base", "held_base", "next_read", "next_del", "num_tracks",
        "rate", "start", "quota", "pace_rate", "pace_base", "phase_mod",
        "phase_val", "unpaced", "waiting", "live", "deliv_delta",
        "recon_delta", "peak0", "peak",
    )

    def __init__(self, size: int, sched: CycleScheduler,
                 bases: dict[str, tuple[int, int]],
                 pairs: Optional[dict[str, tuple[tuple[int, int], ...]]],
                 ) -> None:
        self.sched = sched
        #: Object name -> (first read-table position, first prefix-sum
        #: pointer), from :func:`flat_tables`.
        self.bases = bases
        #: The degraded tables' parity pairs; None while healthy.
        self.pairs = pairs
        self.streams: list[Stream] = []
        #: Whether any row is paced or phase-gated, and the highest
        #: rate: the stage skips the masks no row needs.
        self.paced = self.gated = False
        self.max_rate = 1
        self.obj_base = np.zeros(size, dtype=np.int64)
        self.held_base = np.zeros(size, dtype=np.int64)
        self.next_read = np.zeros(size, dtype=np.int64)
        self.next_del = np.zeros(size, dtype=np.int64)
        self.num_tracks = np.zeros(size, dtype=np.int64)
        self.rate = np.ones(size, dtype=np.int64)
        self.start = np.full(size, -1, dtype=np.int64)  # -1: no data read
        self.quota = np.zeros(size, dtype=np.int64)  # per started cycle
        self.pace_rate = np.zeros(size, dtype=np.int64)
        self.pace_base = np.zeros(size, dtype=np.int64)
        self.phase_mod = np.ones(size, dtype=np.int64)
        self.phase_val = np.zeros(size, dtype=np.int64)
        self.unpaced = np.ones(size, dtype=bool)
        self.waiting = np.zeros(size, dtype=bool)  # nothing delivered yet
        self.live = np.zeros(size, dtype=bool)
        self.deliv_delta = np.zeros(size, dtype=np.int64)  # this epoch
        self.recon_delta = np.zeros(size, dtype=np.int64)  # this epoch
        self.peak0 = np.zeros(size, dtype=np.int64)  # buffer peak at entry
        self.peak = np.zeros(size, dtype=np.int64)  # running buffer peak

    def fill(self, streams: list[Stream]) -> None:
        """Write ``streams`` into the rows after the pool's streams.

        Every value comes from the stream itself, so an admitted stream
        (read pointer 0, nothing delivered, still ``ADMITTED``) gets
        exactly the row an entry would give it.
        """
        sched: CycleScheduler = self.sched
        k_prime = sched.config.k_prime
        base_quota = sched._base_quota
        stream_peak = sched.tracker.stream_peak
        lo = i = len(self.streams)
        self.streams += streams
        for stream in streams:
            self.obj_base[i], self.held_base[i] = self.bases[
                stream.object.name]
            self.next_read[i] = stream.next_read_track
            self.next_del[i] = stream.next_delivery_track
            self.num_tracks[i] = stream.num_tracks
            self.rate[i] = stream.rate
            if stream.delivery_start_cycle is not None:
                self.start[i] = stream.delivery_start_cycle
            self.quota[i] = (k_prime * stream.rate if base_quota
                             else sched.deliveries_per_cycle(stream))
            (self.pace_rate[i], self.pace_base[i], self.phase_mod[i],
             self.phase_val[i]) = sched._ff_gate_params(stream)
            self.waiting[i] = stream.status is StreamStatus.ADMITTED
            self.peak0[i] = self.peak[i] = stream_peak(stream.stream_id)
            i += 1
        self.live[lo:i] = True
        self.unpaced[lo:i] = self.pace_rate[lo:i] == 0
        self.paced = self.paced or not bool(self.unpaced[lo:i].all())
        self.gated = self.gated or bool((self.phase_mod[lo:i] != 1).any())
        self.max_rate = max(self.max_rate,
                            int(self.rate[lo:i].max(initial=1)))

    def make_room(self, incoming: int) -> None:
        """Make room for ``incoming`` more rows: if they do not fit,
        retire the finished rows and move the survivors to the front, in
        order, growing to ``max(need, 2 × size)`` only if still full."""
        n = len(self.streams)
        size = len(self.live)
        if n + incoming <= size:
            return
        self.write_back(np.flatnonzero(~self.live[:n]))
        # The retired streams are complete: prune them from the live
        # index too, or a long epoch's admissions pile up there until
        # the next entry.
        self.sched._prune_live()
        keep = np.flatnonzero(self.live[:n])
        self.streams = [self.streams[i] for i in keep.tolist()]
        need = len(keep) + incoming
        fresh = RowPool(max(need, _ROW_GROWTH * size) if need > size
                        else size, self.sched, self.bases, self.pairs)
        for name in RowPool.__slots__:
            column = getattr(self, name)
            if isinstance(column, np.ndarray):
                getattr(fresh, name)[:len(keep)] = column[keep]
                setattr(self, name, getattr(fresh, name))

    def write_back(self, sel: np.ndarray) -> None:
        """Write rows ``sel`` back to their streams, credit their
        reconstructions and fold their peaks into the tracker.
        Retirement and the epoch exit share it, so a retired row lands
        exactly as the exit would land it."""
        sched: CycleScheduler = self.sched
        pairs = self.pairs
        reads = self.next_read[sel].tolist()
        delivers = self.next_del[sel].tolist()
        delivered = self.deliv_delta[sel].tolist()
        starts = self.start[sel].tolist()
        waiting = self.waiting[sel].tolist()
        live = self.live[sel].tolist()
        rebuilt = self.recon_delta[sel].tolist()
        for j, i in enumerate(sel.tolist()):
            stream = self.streams[i]
            stream.next_read_track = reads[j]
            stream.next_delivery_track = delivers[j]
            stream.delivered_tracks += delivered[j]
            if stream.delivery_start_cycle is None and starts[j] >= 0:
                stream.delivery_start_cycle = starts[j]
            if stream.status is StreamStatus.ADMITTED and not waiting[j]:
                stream.activate()
            if live[j]:
                stream.buffer = dict.fromkeys(range(delivers[j], reads[j]),
                                              META_PAYLOAD)
                if pairs is not None:
                    stream.parity_buffer = dict.fromkeys(_held_parity(
                        pairs[stream.object.name], reads[j], delivers[j],
                        sched._stripe), META_PAYLOAD)
            else:
                stream.complete()
            if pairs is not None:
                stream.reconstructed_tracks += rebuilt[j]
                sched._ff_sync_stream(stream)
        if pairs is not None:
            sched._ff_credit(sum(rebuilt))
        sched.tracker.fold_epoch(
            {self.streams[i].stream_id: int(self.peak[i])
             for i in sel[self.peak[sel] > self.peak0[sel]].tolist()})


def run(sched: CycleScheduler, limit: int, reports: list[CycleReport],
        arrivals: Arrivals) -> tuple[int, int, int, bool]:
    """Advance up to ``limit`` (>= 1) cycles on the batched epoch engine.

    Refreshes the plan cache and asks ``_ff_classify`` whether the state
    allows an epoch at all; then the entry, stage, commit and exit steps.

    Returns ``(cycles done, admitted, rejected, consumed)`` where
    ``consumed`` means the *current* cycle's arrivals were already
    admitted before a bail, so the scalar fallback must not re-admit
    them.  A refused entry returns zeros; every refusal and bail is
    tallied once through ``_ff_note``.
    """
    sched._refresh_plan_cache()
    epoch = _Epoch()
    bail = sched._ff_classify() or epoch.enter(sched, limit, arrivals)
    if bail is not None:
        sched._ff_note(bail)
        return 0, 0, 0, False
    done = 0
    consumed = False
    while done < limit:
        cycle = sched.cycle_index
        if epoch.rebuilders and any(
                rb.total_blocks - rb.blocks_rebuilt <= rb.writes_per_cycle
                for rb in epoch.rebuilders):
            # A rebuild could finish this cycle.  Completion is a state
            # transition with in-cycle side effects the engine does not
            # model (repair_disk releases pool leases and clears scheme
            # degraded state *before* the cycle's buffer sample) — hand
            # the tail to the scalar path before this cycle's batch is
            # admitted.
            bail = "rebuild-complete"
            break
        consumed = epoch.admit(cycle)
        staged = epoch.stage(cycle)
        if isinstance(staged, str):
            bail = staged
            break
        epoch.commit(cycle, staged, reports)
        done += 1
        consumed = False
    epoch.exit(done)
    sched._ff_note(bail)
    return done, epoch.admitted, epoch.rejected, consumed


class _Epoch:
    """One epoch's state, all set up by :meth:`enter`: the tables, the
    row pool, the rebuild cursors and the running totals."""

    __slots__ = (
        "sched", "counts", "offsets", "member_disks", "next_pointers",
        "divisor", "degraded", "rebuilders", "phase_load", "loop", "trace",
        "active", "terminated", "num_disks", "pool_now", "limit_units",
        "pool", "total_loads", "failed_ids", "admitted", "rejected",
        "serving",
    )

    def enter(self, sched: CycleScheduler, limit: int,
              arrivals: Arrivals) -> Optional[str]:
        """The entry step: a bail reason, or None with the rows filled
        after one walk over the scheduler's live index (pruned first, so
        the walk visits only the streams in service), the working set's
        tables, the held-parity check and the rebuild plans."""
        self.sched: CycleScheduler = sched
        self.admitted = self.rejected = 0
        width = sched.config.stripe_width
        rows: list[Stream] = []
        objects: dict[str, MediaObject] = {}
        self.phase_load = phase_load = [0] * width
        parity_held = False
        sched._prune_live()
        self.active = 0
        self.terminated = sched._terminated
        for stream in sched._live.values():
            if stream.status is StreamStatus.ACTIVE:
                self.active += 1
            # The data buffer must be the contiguous range
            # [next_delivery, next_read): reconstruction lands a failed
            # member's track in the cycle its group is read, and holes
            # always come with lost-track state.
            if stream.lost_tracks or len(stream.buffer) != (
                    stream.next_read_track - stream.next_delivery_track) \
                    or not sched._ff_stream_ok(stream):
                return "stream-state"
            parity_held = parity_held or bool(stream.parity_buffer)
            rows.append(stream)
            phase_load[stream.phase % width] += stream.rate
            objects.setdefault(stream.object.name, stream.object)
        placed = 0  # arrivals in the window that are on disk
        self.loop: Optional[ClosedLoop] = None
        if isinstance(arrivals, ClosedLoop):
            # Rows in service per title; every title may arrive.
            self.loop = arrivals
            self.serving = Counter(stream.object.name for stream in rows)
            window = {sched.cycle_index: arrivals.titles}
        else:
            self.trace = window = arrivals
        if window:
            # Working set: live objects plus every placed arrival in the
            # window (unplaced ones are rejected in-engine).
            start_cycle = sched.cycle_index
            has_object = sched.layout.has_object
            for cycle, batch in window.items():
                if not start_cycle <= cycle < start_cycle + limit:
                    continue
                for obj in batch:
                    if has_object(obj.name):
                        placed += 1
                        objects.setdefault(obj.name, obj)
        if objects:
            tables = flat_tables(sched, list(objects.values()))
        else:
            # No live streams and no placed arrivals in the window: every
            # batched request is a guaranteed rejection and the cycles
            # themselves are empty.
            zeros = np.zeros(0, dtype=np.int64)
            tables = (zeros, np.zeros(1, dtype=np.int64), zeros, zeros, {},
                      1, None, None)
        (self.counts, self.offsets, self.member_disks, self.next_pointers,
         bases, self.divisor, self.degraded, pairs) = tables
        if parity_held or pairs is not None:
            # Held parity must be exactly what the tables predict; with
            # no degraded table no position reads parity, so none is.
            for stream in rows:
                if sorted(stream.parity_buffer) != _held_parity(
                        () if pairs is None else pairs[stream.object.name],
                        stream.next_read_track, stream.next_delivery_track,
                        sched._stripe):
                    return "stream-state"
        self.rebuilders = list(sched.rebuilders)
        for rebuilder in self.rebuilders:
            if rebuilder.prepare_fast_plan() is None:
                return "rebuild-veto"
        # Pool leases change only on fail/repair: constant for the epoch.
        self.pool_now = sched._extra_buffer_tracks()
        self.limit_units = sched.effective_admission_limit() if arrivals \
            else 0
        # Room for the live rows and the window's placed arrivals: a
        # window with no streams and no placed arrivals allocates nothing.
        n = len(rows)
        self.pool = RowPool(min(n + placed, max(_ROW_FLOOR, _ROW_GROWTH * n)),
                            sched, bases, pairs)
        self.pool.fill(rows)
        self.num_disks = len(sched.array.disks)
        self.total_loads = np.zeros(self.num_disks, dtype=np.int64)
        self.failed_ids = np.asarray(sched.array.failed_ids, dtype=np.int64)
        return None

    def admit(self, cycle: int) -> bool:
        """Admit ``cycle``'s batch through the scalar decision; False if
        none arrived."""
        loop = self.loop
        batch = (loop.missing(self.serving) if loop is not None
                 else self.trace.get(cycle))
        if not batch:
            return False
        streams: list[Stream] = []
        for obj in batch:
            try:
                streams.append(self.sched._admit_checked(
                    obj, self.phase_load, self.limit_units))
            except AdmissionError:
                self.rejected += 1
        if streams:
            self.admitted += len(streams)
            self.pool.make_room(len(streams))
            self.pool.fill(streams)
            if self.loop is not None:
                self.serving.update(s.object.name for s in streams)
        return True

    def stage(self, cycle: int) -> Union[str, tuple]:
        """Stage ``cycle`` without mutating anything: the bail reason of
        a state transition, or ``(due, steps, pointer, planned, loads)``:
        each row's deliveries, each table step's ``(reading mask, table
        index)``, the new read pointers, the reads and per-disk loads."""
        pool = self.pool
        degraded = self.degraded
        divisor = self.divisor
        started = pool.live & (pool.start >= 0) & (pool.start <= cycle)
        due = np.where(started, np.minimum(
            pool.quota, pool.num_tracks - pool.next_del), 0)
        if bool((due > pool.next_read - pool.next_del).any()):
            return "imminent-hiccup"
        reading = pool.live & (pool.next_read < pool.num_tracks)
        if pool.gated:
            reading &= (cycle % pool.phase_mod) == pool.phase_val
        if pool.paced:
            pace = (cycle + 1 - pool.pace_base) * pool.pace_rate
            reading &= pool.unpaced | (pool.next_read < pace)
        # Table steps: a rate-r row takes up to r, each gated like the
        # first on the pointer the previous step left.
        pointer = pool.next_read
        steps: list[tuple[np.ndarray, np.ndarray]] = []
        for step in range(pool.max_rate):
            if step:
                reading = reading & (pool.rate > step) \
                    & (pointer < pool.num_tracks)
                if pool.paced:
                    reading &= pool.unpaced | (pointer < pace)
                if not reading.any():
                    break
            if divisor > 1 and bool(
                    (reading & (pointer % divisor != 0)).any()):
                return "mid-group-pointer"  # the scalar path raises
            idx = np.where(reading, pool.obj_base + pointer // divisor, 0)
            if degraded is not None \
                    and bool((reading & ~degraded[2][idx]).any()):  # valid
                return "unrecoverable-group"  # scalar sheds: transition
            steps.append((reading, idx))
            pointer = np.where(reading, self.next_pointers[idx], pointer)
        r_idx = (steps[0][1][steps[0][0]] if len(steps) == 1
                 else np.concatenate([idx[mask] for mask, idx in steps]))
        r_cnt = self.counts[r_idx]
        planned_total = int(r_cnt.sum())
        loads = None
        if planned_total:
            ends = np.cumsum(r_cnt)
            within = np.arange(planned_total) \
                - np.repeat(ends - r_cnt, r_cnt)
            disk_ids = self.member_disks[
                np.repeat(self.offsets[r_idx], r_cnt) + within]
            loads = np.bincount(disk_ids, minlength=self.num_disks)
            if int(loads.max(initial=0)) > self.sched.config.slots_per_disk:
                return "slot-overflow"  # scalar drops / cascades
        return due, steps, pointer, planned_total, loads

    def commit(self, cycle: int, staged: tuple,
               reports: list[CycleReport]) -> None:
        """Apply a staged cycle, feed the rebuild cursors its idle slots
        and record its report."""
        pool = self.pool
        degraded = self.degraded
        due, steps, pointer, planned, loads = staged
        if loads is not None:
            self.total_loads += loads
        parity_cycle = 0
        if degraded is not None:
            for mask, idx in steps:
                rebuilt = np.where(mask, degraded[1][idx], 0)  # parity
                pool.recon_delta += rebuilt
                parity_cycle += int(rebuilt.sum())
        newly = pool.waiting & (due > 0)
        if bool(newly.any()):
            self.active += int(newly.sum())
            pool.waiting &= ~newly
        # The delivery clock starts the cycle after a stream's first
        # *data* read; parity fetches never start it.
        data = self.counts if degraded is None else degraded[0]  # data
        mask, idx = steps[0]
        got = mask & (data[idx] > 0)
        for mask, idx in steps[1:]:
            got |= mask & (data[idx] > 0)
        first_read = (pool.start < 0) & got
        if bool(first_read.any()):
            pool.start[first_read] = cycle + 1
        pool.next_del += due
        pool.deliv_delta += due
        pool.next_read = pointer
        finished = pool.live & (pool.next_del >= pool.num_tracks)
        if bool(finished.any()):
            self.active -= int(finished.sum())
            pool.live &= ~finished
            # Completed rows free their capacity, and in a closed loop
            # their title, for later batches.
            width = len(self.phase_load)
            for i in np.nonzero(finished)[0]:
                row = pool.streams[int(i)]
                self.phase_load[row.phase % width] -= row.rate
                if self.loop is not None:
                    self.serving[row.object.name] -= 1
        # -- rebuild: lowest priority, idle slots only --------------------
        blocks = 0
        if self.rebuilders:
            idle = np.full(self.num_disks, self.sched.config.slots_per_disk,
                           dtype=np.int64)
            if loads is not None:
                idle -= loads
            idle[self.failed_ids] = 0
            for rebuilder in self.rebuilders:
                blocks += rebuilder.fast_step(idle, self.total_loads)
        if degraded is None:
            held = np.where(pool.live, pool.next_read - pool.next_del, 0)
        else:
            pheld, prel, acch = degraded[3:]
            pointer_idx = pool.held_base + pool.next_read
            held = np.where(pool.live, pool.next_read - pool.next_del
                            + pheld[pointer_idx] + acch[pointer_idx]
                            - prel[pool.held_base + pool.next_del], 0)
        np.maximum(pool.peak, held, out=pool.peak)
        buffered = int(held.sum()) + self.pool_now
        report = CycleReport(
            cycle=cycle, reads_planned=planned, reads_executed=planned,
            parity_reads=parity_cycle, reconstructions=parity_cycle,
            blocks_rebuilt=blocks, tracks_delivered=int(due.sum()),
            streams_active=self.active,
            streams_terminated=self.terminated, buffered_tracks=buffered,
            pool_tracks_in_use=self.pool_now)
        reports.append(report)
        self.sched.report.record(report)
        self.sched.cycle_index = cycle + 1

    def exit(self, done: int) -> None:
        """The exit step: write the rows, the disk read counters and the
        buffer peaks back to the Python objects."""
        sched: CycleScheduler = self.sched
        if done or self.admitted:
            self.pool.write_back(np.arange(len(self.pool.streams)))
            disks = sched.array.disks
            for disk_id in np.nonzero(self.total_loads)[0]:
                disks[int(disk_id)].reads += int(self.total_loads[disk_id])
            sched.report.ff_engaged_cycles += done
        if done:
            sched._last_executed = None
