"""The batched epoch engine behind every fast-forward entry.

Stream state lives in the numpy columns of a :class:`RowPool` for the
whole epoch; each cycle is a handful of whole-array operations over the
read tables of :func:`flat_tables` (delivery quotas, table gathers, one
``bincount`` for per-disk loads), staged on scratch state so a bail
leaves no trace.  :func:`run` is the one entry.  An epoch that runs all
the cycles it was asked for pauses, and the next call resumes it; its
exit writes the state back at a bail or close, so the post-run state is
indistinguishable from a scalar run.  A stream the epoch admits is a
row and nothing else: when it finishes, its row moves into the
scheduler's stream registry's archive, and only a row still live at
the exit becomes a :class:`~repro.server.stream.Stream`.

One mechanism covers every stable state:

* **healthy** is the degenerate case with no failed disk: no table
  carries degraded columns, so the engine skips the per-cycle validity
  check, reconstruction counting and prefix-sum buffer arithmetic, and
  the parity-buffer write-back;
* **degraded** — failed disks in pairwise-disjoint parity groups
  (``_ff_classify`` proves disjointness via the empty lost-track set),
  read group at a time: reconstruction reads are extra rows in the
  tables (the parity-fallback disk joins the group's members), and
  reconstruction commits are pure arithmetic (a degraded group read
  completes its rebuild in the same cycle, since every survivor is
  resident by construction).  NC's degraded transition runs scalar
  (its ``_fast_forward_ready`` veto);
* **rebuilding** — every in-flight online rebuild advances as a
  vectorised cursor fed with the cycle's idle slots, in scalar rebuilder
  order, sharing one idle budget, exactly like ``_rebuild_phase``;
* **mixed rates** — a rate-``r`` row takes up to ``r`` table steps per
  cycle, each gated like the first, as the scalar planners plan ``rate``
  group reads or quanta per stream;
* **churn** — each cycle admits its batch through the *same*
  ``_admit_many`` decision the scalar front door uses, against
  ``effective_admission_limit`` (constant for the epoch: every
  ``_capacity_penalty`` is a pure function of array/layout/
  degraded-cluster state, which only changes on the transitions the
  engine bails on); the admitted columns join the pool as rows at read
  pointer 0, which is trivially canonical.  A trace's batch is its
  ``arrivals`` entry, a :class:`ClosedLoop`'s every title with no row
  in service.

The engine bails only on state transitions: a rebuild that could
complete, a stream crossing an unreconstructable position, a mid-group
read pointer, an imminent hiccup or a slot overflow.

The scheduler keeps the rest: the plan-cache refresh, ``_ff_classify``
and ``_ff_note``, the scheme hooks (``_fast_forward_ready``,
``_ff_gate_params``, ``_ff_stream_ok``), the read unit
(``_ff_per_track``) and the cache slots.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Union

import numpy as np

from repro.media.objects import MediaObject
from repro.parity.xor import META_PAYLOAD
from repro.server.metrics import CycleReport
from repro.server.stream import Stream, StreamStatus

if TYPE_CHECKING:
    from repro.layout.base import CatalogColumns
    from repro.sched.base import CycleScheduler

#: Row pool sizing: a pool starts at ``_ROW_GROWTH`` times the live rows
#: (at least ``_ROW_FLOOR``) and grows by that factor when retiring
#: finished rows leaves no room for a batch.
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


def _healthy_tables(view: CatalogColumns, unit: int) -> tuple:
    """The tables with no disk down, for reads of one parity group
    (``unit`` the stripe) or one track (``unit`` 1) a position, in one
    pass over the view; their member list is its data column itself."""
    first = view.first_track if unit == 1 else view.first_group
    owner = np.repeat(np.arange(len(view.names)), np.diff(first))
    total = len(owner)
    # Each position's first track: an object's positions end where the
    # next object's begin, and the last where the catalog does.
    offsets = np.zeros(total + 2, dtype=np.int64)
    offsets[1:-1] = view.first_track[owner] \
        + (np.arange(total) - first[owner]) * unit
    offsets[-1] = len(view.data_disk)
    next_pointers = np.zeros(total + 1, dtype=np.int64)
    next_pointers[1:] = offsets[2:] - view.first_track[owner]
    return (np.diff(offsets), offsets, view.data_disk, next_pointers,
            dict(zip(view.names, (first[:-1] + 1).tolist())), unit, None)


def _overlay(view: CatalogColumns, healthy: tuple, failed: list[int],
             num_disks: int) -> tuple:
    """``healthy`` with the disks ``failed`` down, in one pass over the
    whole catalog (``healthy`` itself when no data member is down: a
    failed parity disk never shows in a healthy group read).

    A group that lost one member while its parity survives is read with
    its parity disk after its survivors.  ``degraded = (data_counts,
    parity_flags, valid, parity_before)``: *parity_flags* marks such a
    group (one parity fetch **and** one same-cycle reconstruction),
    *valid* is False where the scalar planner cannot recover a group,
    and ``parity_before[q]`` counts the flagged positions before ``q``.
    So a canonical stream with base ``b``, read pointer ``r`` and
    delivery pointer ``d`` holds the parity of exactly the flagged
    positions in ``[b + d // s, b + ceil(r / s))`` (``s`` the stripe):
    the groups it has read but not yet fully delivered.
    """
    is_down = np.zeros(num_disks, dtype=bool)
    is_down[failed] = True
    down = is_down[view.data_disk]
    if not bool(down.any()):
        return healthy
    counts, offsets, disks, next_pointers, bases, unit, _ = healthy
    ptr = offsets[1:]  # each group's first track, then the total
    fcnt = np.add.reduceat(down.astype(np.int64), ptr[:-1])
    # A group with one member down and its parity up is rebuilt in the
    # cycle that reads it; any other loss is unreconstructable: the
    # scalar path sheds the stream there (data loss), a state
    # transition the engine must never cross.
    recoverable = (fcnt == 1) & ~is_down[view.parity_disk]
    groups = np.flatnonzero(recoverable)
    # A group's survivors end at its end less the members down so far.
    member_disks = np.insert(disks[~down],
                             ptr[groups + 1] - np.cumsum(fcnt)[groups],
                             view.parity_disk[groups])
    # Position 0 stays idle: no members, no parity, valid.
    data_counts = counts.copy()
    data_counts[1:] -= fcnt
    parity_flags = np.zeros(len(counts), dtype=np.int64)
    parity_flags[1:] = recoverable
    valid = np.ones(len(counts), dtype=bool)
    valid[1:] = (fcnt == 0) | recoverable
    member_counts = data_counts + parity_flags
    member_offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(member_counts, out=member_offsets[1:])
    parity_before = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(parity_flags, out=parity_before[1:])
    return (member_counts, member_offsets, member_disks, next_pointers,
            bases, unit, (data_counts, parity_flags, valid, parity_before))


def flat_tables(sched: CycleScheduler) -> tuple:
    """The read tables of every placed object, end to end.

    Returns ``(counts, offsets, member_disks, next_pointers, bases,
    divisor, degraded)``: a stream at read pointer ``p`` whose object
    starts at position ``b = bases[name]`` reads the ``counts[q]`` disks
    ``member_disks[offsets[q]:offsets[q + 1]]`` of position ``q = b + p
    // divisor``, and its pointer becomes ``next_pointers[q]``.  Position
    0 reads nothing (an empty layout's tables hold only it).  A position
    is one parity group (``divisor`` the stripe), or one track where the
    scheduler reads a track at a time (``_ff_per_track``: NC, which runs
    the engine only while no read touches a failed disk, so with no
    failure overlay).  With no data disk down, ``degraded`` is None and
    the tables are the healthy ones kept with the layout's view
    (:attr:`~repro.layout.base.DataLayout.columns`); else see
    :func:`_overlay`.  They change only with the plan-cache key
    ``(layout.epoch, array.state_epoch)``: built once per key, one tuple
    serves every engine entry under it.
    """
    if sched._ff_tables_key == sched._plan_cache_key \
            and sched._ff_tables is not None:
        return sched._ff_tables
    view = sched.layout.columns
    unit = 1 if sched._ff_per_track else sched._stripe
    tables = view.tables.get(unit)
    if tables is None:
        tables = view.tables[unit] = _healthy_tables(view, unit)
    failed = sched.array.failed_ids
    if failed and not sched._ff_per_track:
        tables = _overlay(view, tables, failed, sched.layout.num_disks)
    sched._ff_tables = tables
    sched._ff_tables_key = sched._plan_cache_key
    return tables


def _held_parity(degraded: Optional[tuple], base: int, read: int,
                 delivered: int, stripe: int) -> list[int]:
    """The parity groups a canonical stream holds: the flagged groups
    its read pointer has read, not yet released by its delivery
    pointer.  Most streams hold none, so the two prefix-sum entries
    are read before any slice."""
    if degraded is None:
        return []
    before = degraded[3]
    lo = base + delivered // stripe
    hi = base - (-read // stripe)
    if before[lo] == before[hi]:
        return []
    return (np.flatnonzero(degraded[1][lo:hi]) + (lo - base)).tolist()


class RowPool:
    """The epoch's streams as numpy row columns, sized to the live ones.

    Every array slot is a per-row column.  Rows ``[0, rows)`` hold the
    epoch's streams in admission (id) order; every row past them holds
    its column's neutral value (not live, not reading, nothing staged),
    so whole-array steps need no mask for the tail.  A row is a stream
    id and its state.  The entry's rows keep their :class:`Stream`
    objects (``streams``, by id) and :meth:`fill` writes them from
    those; a row admitted in the epoch (an id from ``first_fresh`` on)
    is written by :meth:`add` from the admission's columns and has no
    object.  :meth:`make_room` retires the rows that finished in
    committed cycles (a finished row's state is final, so
    :meth:`retire` lands it as the epoch exit would), so per-cycle cost
    follows the live rows, not the admissions so far.  The entry sizes
    a pool from its live rows alone (see ``_ROW_GROWTH``); since
    retirement changes no outcome, neither does the size.
    """

    __slots__ = (
        "sched", "bases", "degraded", "streams", "first_fresh", "rows",
        "paced", "gated", "max_rate", "ids", "obj", "phase", "admitted",
        "obj_base", "next_read", "next_del", "num_tracks", "rate", "start",
        "quota", "pace_rate", "pace_base", "phase_mod", "phase_val",
        "unpaced", "waiting", "live", "deliv_delta", "recon_delta", "peak0",
        "peak",
    )

    def __init__(self, size: int, sched: CycleScheduler,
                 bases: dict[str, int], degraded: Optional[tuple]) -> None:
        self.sched = sched
        #: Object name -> first read-table position, and the degraded
        #: columns (None while healthy), from :func:`flat_tables`.
        self.bases = bases
        self.degraded = degraded
        #: The entry rows' streams by id, and the rows admitted in the
        #: epoch turned into streams at its exit.
        self.streams: dict[int, Stream] = {}
        #: The first id the epoch admits: rows from it on have no stream.
        self.first_fresh = sched._next_stream_id
        self.rows = 0
        #: Whether any row is paced or phase-gated, and the highest
        #: rate: the stage skips the masks no row needs.
        self.paced = self.gated = False
        self.max_rate = 1
        self.ids = np.zeros(size, dtype=np.int64)
        self.obj = np.full(size, None, dtype=object)  # the MediaObject
        self.phase = np.zeros(size, dtype=np.int64)
        self.admitted = np.zeros(size, dtype=np.int64)  # admission cycle
        self.obj_base = np.zeros(size, dtype=np.int64)
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

    def _write(self, objects: Sequence[MediaObject], ids: Sequence[int],
               phases: Sequence[int], rates: Sequence[int],
               admitted: Union[int, Sequence[int]]) -> slice:
        """The column writer: append rows for streams ``ids`` of
        ``objects`` with their phases, rates and admission cycles, each
        column in one slice assignment, and return their slice.  Every
        other column keeps the tail's neutral value: a stream at read
        pointer 0 with nothing delivered and no buffer peak."""
        sched: CycleScheduler = self.sched
        lo = self.rows
        rows = slice(lo, lo + len(objects))
        self.rows = rows.stop
        bases = self.bases
        self.ids[rows] = ids
        self.obj[rows] = objects
        self.phase[rows] = phases
        self.rate[rows] = rates
        self.admitted[rows] = admitted
        self.obj_base[rows] = [bases[obj.name] for obj in objects]
        self.num_tracks[rows] = [obj.num_tracks for obj in objects]
        rate = self.rate[rows]
        self.quota[rows] = rate * sched.config.k_prime
        (self.pace_rate[rows], self.pace_base[rows], self.phase_mod[rows],
         self.phase_val[rows]) = sched._ff_gate_params(
            self.phase[rows], rate, self.admitted[rows])
        self.live[rows] = True
        self.unpaced[rows] = self.pace_rate[rows] == 0
        self.paced = self.paced or not bool(self.unpaced[rows].all())
        self.gated = self.gated or bool((self.phase_mod[rows] != 1).any())
        self.max_rate = max(self.max_rate, max(rates))
        return rows

    def add(self, objects: Sequence[MediaObject], ids: range,
            phases: Sequence[int], rates: Sequence[int], cycle: int) -> None:
        """Append the streams admitted in ``cycle`` as rows alone: no
        :class:`Stream`, nothing read back, no tracker lookup (a new id
        has no peak).  Each starts waiting for its first delivery."""
        if objects:
            self.waiting[self._write(objects, ids, phases, rates,
                                     cycle)] = True

    def fill(self, streams: list[Stream]) -> None:
        """Append the entry's ``streams`` through the same column writer,
        then their pointers, delivery start, status and tracker peaks."""
        if not streams:
            return
        ids = [s.stream_id for s in streams]
        self.streams.update(zip(ids, streams))
        rows = self._write([s.object for s in streams], ids,
                           [s.phase for s in streams],
                           [s.rate for s in streams],
                           [s.admitted_cycle for s in streams])
        self.next_read[rows] = [s.next_read_track for s in streams]
        self.next_del[rows] = [s.next_delivery_track for s in streams]
        self.start[rows] = [-1 if s.delivery_start_cycle is None
                            else s.delivery_start_cycle for s in streams]
        admitted = StreamStatus.ADMITTED
        self.waiting[rows] = [s.status is admitted for s in streams]
        self.peak0[rows] = self.peak[rows] = \
            self.sched.tracker.stream_peaks(ids)

    def make_room(self, incoming: int) -> None:
        """Make room for ``incoming`` more rows: if they do not fit,
        retire the finished rows and move the survivors to the front, in
        order, growing to ``max(need, 2 × size)`` only if still full."""
        n = self.rows
        size = len(self.live)
        if n + incoming <= size:
            return
        self.retire(np.flatnonzero(~self.live[:n]))
        keep = np.flatnonzero(self.live[:n])
        need = len(keep) + incoming
        fresh = RowPool(max(need, _ROW_GROWTH * size) if need > size
                        else size, self.sched, self.bases, self.degraded)
        for name in RowPool.__slots__:
            column = getattr(self, name)
            if isinstance(column, np.ndarray):
                getattr(fresh, name)[:len(keep)] = column[keep]
                setattr(self, name, getattr(fresh, name))
        self.rows = len(keep)

    def close(self) -> None:
        """Land every row at the epoch exit.  A row admitted in the epoch
        and still live becomes a registered :class:`Stream` here, joining
        the live index in id order; the ids the epoch admitted are
        registered in order around it."""
        sched: CycleScheduler = self.sched
        n = self.rows
        sched._registry.reserve(range(self.first_fresh,
                                      sched._next_stream_id))
        born = np.flatnonzero(self.live[:n]
                              & (self.ids[:n] >= self.first_fresh))
        if len(born):
            ids = self.ids[born].tolist()
            self.streams.update(zip(ids, sched._register(
                self.obj[born].tolist(), ids, self.phase[born].tolist(),
                self.rate[born].tolist(), self.admitted[born].tolist())))
        self.retire(np.arange(n))

    def retire(self, sel: np.ndarray) -> None:
        """Land rows ``sel``: a row with a stream through
        :meth:`write_back`, a finished row admitted in the epoch by slice
        copies into the registry's archive; then fold their buffer peaks
        into the tracker.  Retirement and the exit share it, so a retired
        row lands exactly as the exit would land it."""
        kept = (self.ids[sel] < self.first_fresh) | self.live[sel]
        self.write_back(sel[kept])
        done = sel[~kept]
        if len(done):
            self.sched._registry.archive(self.ids[done], {
                "object": self.obj[done],
                "admitted_cycle": self.admitted[done],
                "phase": self.phase[done],
                "rate": self.rate[done],
                "next_read_track": self.next_read[done],
                "next_delivery_track": self.next_del[done],
                "delivery_start_cycle": self.start[done],
                "delivered_tracks": self.deliv_delta[done],
                "reconstructed_tracks": self.recon_delta[done],
            })
        raised = sel[self.peak[sel] > self.peak0[sel]]
        self.sched.tracker.fold_epoch(dict(zip(
            self.ids[raised].tolist(), self.peak[raised].tolist())))

    def write_back(self, sel: np.ndarray) -> None:
        """Write rows ``sel`` back to their streams and credit their
        reconstructions: a live row's buffer and held parity are the
        canonical ones its pointers imply, a finished row completes."""
        sched: CycleScheduler = self.sched
        degraded = self.degraded
        stripe = sched._stripe
        streams = self.streams
        admitted, active = StreamStatus.ADMITTED, StreamStatus.ACTIVE
        for stream_id, base, read, deliver, delivered, start, waiting, \
                live, rebuilt in zip(self.ids[sel].tolist(),
                                     self.obj_base[sel].tolist(),
                                     self.next_read[sel].tolist(),
                                     self.next_del[sel].tolist(),
                                     self.deliv_delta[sel].tolist(),
                                     self.start[sel].tolist(),
                                     self.waiting[sel].tolist(),
                                     self.live[sel].tolist(),
                                     self.recon_delta[sel].tolist()):
            stream = streams[stream_id]
            stream.next_read_track = read
            stream.next_delivery_track = deliver
            if delivered:
                stream.delivered_tracks += delivered
            if start >= 0 and stream.delivery_start_cycle is None:
                stream.delivery_start_cycle = start
            if not waiting and stream.status is admitted:
                stream.status = active  # Stream.activate, inline
            if live:
                stream.buffer = dict.fromkeys(range(deliver, read),
                                              META_PAYLOAD)
                if degraded is not None:
                    stream.parity_buffer = dict.fromkeys(_held_parity(
                        degraded, base, read, deliver, stripe),
                        META_PAYLOAD)
            else:
                stream.complete()
            if rebuilt:  # only degraded tables rebuild
                stream.reconstructed_tracks += rebuilt


def run(sched: CycleScheduler, limit: int, reports: list[CycleReport],
        arrivals: Arrivals, held: Optional[_Epoch],
        ) -> tuple[Optional[_Epoch], int, int, bool]:
    """Advance up to ``limit`` (>= 1) cycles on the batched epoch engine.

    Refreshes the plan cache, then resumes ``held``, the epoch an
    earlier call paused, or enters a new one: ``_ff_classify`` says
    whether the state allows an epoch at all, then the entry step.  A
    held epoch entered under another plan-cache key (a placement change
    or a direct array fault since it paused) exits first and a new one
    is entered.  Then the stage and commit steps, cycle by cycle.

    Returns ``(epoch, admitted, rejected, consumed)``.  ``epoch`` is
    the epoch, paused, when it ran all ``limit`` cycles with no bail,
    and None once a refusal or a bail ended it (a bail runs the exit
    step).  ``consumed`` means the *current* cycle's arrivals were
    already admitted before a bail, so the scalar fallback must not
    re-admit them.  A refused entry returns zeros; every refusal and
    bail, never a pause, is tallied once through ``_ff_note``.
    """
    sched._refresh_plan_cache()
    epoch = held
    if epoch is not None and epoch._ff_tables_key != sched._plan_cache_key:
        epoch.exit()
        epoch = None
    if epoch is None:
        epoch = _Epoch()
        bail = sched._ff_classify() or epoch.enter(sched, arrivals)
        if bail is not None:
            sched._ff_note(bail)
            return None, 0, 0, False
    else:
        epoch.take(arrivals)
    admitted, rejected = epoch.admitted, epoch.rejected
    done = 0
    consumed = False
    bail = None
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
    epoch.done += done
    admitted = epoch.admitted - admitted
    rejected = epoch.rejected - rejected
    if bail is None:
        return epoch, admitted, rejected, False
    epoch.exit()
    sched._ff_note(bail)
    return None, admitted, rejected, consumed


class _Epoch:
    """One epoch's state, all set up by :meth:`enter`: the tables, the
    row pool, the rebuild cursors and the running totals.  It lives
    from its entry to its :meth:`exit`, across every advance that
    resumes it."""

    __slots__ = (
        "sched", "counts", "offsets", "member_disks", "next_pointers",
        "divisor", "degraded", "rebuilders", "phase_load", "loop", "trace",
        "active", "terminated", "num_disks", "pool_now", "limit_units",
        "pool", "total_loads", "failed_ids", "admitted", "rejected",
        "serving", "_ff_tables_key", "done",
    )

    def enter(self, sched: CycleScheduler,
              arrivals: Arrivals) -> Optional[str]:
        """The entry step: a bail reason, or None with the rows filled
        after one walk over the scheduler's live index (pruned first, so
        the walk visits only the streams in service), the layout's
        tables, the held-parity check and the rebuild plans."""
        self.sched: CycleScheduler = sched
        #: The plan-cache key of the read tables this epoch holds.
        self._ff_tables_key = sched._plan_cache_key
        self.admitted = self.rejected = self.done = 0
        width = sched.config.stripe_width
        rows: list[Stream] = []
        self.phase_load = phase_load = [0] * width
        parity_held = False
        sched._prune_live()
        self.terminated = sched._terminated
        active = 0
        active_status = StreamStatus.ACTIVE
        stream_ok = sched._ff_stream_ok
        append = rows.append
        for stream in sched._live.values():
            if stream.status is active_status:
                active += 1
            # The data buffer must be the contiguous range
            # [next_delivery, next_read): reconstruction lands a failed
            # member's track in the cycle its group is read, and holes
            # always come with lost-track state.
            if stream.lost_tracks or len(stream.buffer) != (
                    stream.next_read_track - stream.next_delivery_track) \
                    or not stream_ok(stream):
                return "stream-state"
            if stream.parity_buffer:
                parity_held = True
            append(stream)
            phase_load[stream.phase % width] += stream.rate
        self.active = active
        (self.counts, self.offsets, self.member_disks, self.next_pointers,
         bases, self.divisor, self.degraded) = flat_tables(sched)
        if parity_held or self.degraded is not None:
            # Held parity must be exactly what the tables predict; with
            # no degraded table no position reads parity, so none is.
            stripe = sched._stripe
            for stream in rows:
                if sorted(stream.parity_buffer) != _held_parity(
                        self.degraded, bases[stream.object.name],
                        stream.next_read_track, stream.next_delivery_track,
                        stripe):
                    return "stream-state"
        self.rebuilders = list(sched.rebuilders)
        for rebuilder in self.rebuilders:
            if rebuilder.prepare_fast_plan() is None:
                return "rebuild-veto"
        # Pool leases and the admission limit change only on fail/repair:
        # constant for the epoch, whatever arrivals a later advance brings.
        self.pool_now = sched._extra_buffer_tracks()
        self.limit_units = sched.effective_admission_limit()
        # Room for the live rows and as many again; admissions past that
        # retire finished rows first (RowPool.make_room).  Every id from
        # the scheduler's next one on is admitted by this epoch.
        self.pool = RowPool(max(_ROW_FLOOR, _ROW_GROWTH * len(rows)),
                            sched, bases, self.degraded)
        self.pool.fill(rows)
        self.num_disks = len(sched.array.disks)
        self.total_loads = np.zeros(self.num_disks, dtype=np.int64)
        self.failed_ids = np.asarray(sched.array.failed_ids, dtype=np.int64)
        self.loop: Optional[ClosedLoop] = None
        self.take(arrivals)
        return None

    def take(self, arrivals: Arrivals) -> None:
        """Swap in an advance's arrivals, keeping everything else.  A
        closed loop counts the rows in service per title, from the live
        rows when the epoch was not already counting them."""
        if not isinstance(arrivals, ClosedLoop):
            self.loop = None
            self.trace = arrivals
            return
        if self.loop is None:
            self.serving = Counter(
                obj.name for obj in self.pool.obj[self.pool.live].tolist())
        self.loop = arrivals

    def admit(self, cycle: int) -> bool:
        """Admit ``cycle``'s batch through the scalar decision; False if
        none arrived."""
        loop = self.loop
        batch = (loop.missing(self.serving) if loop is not None
                 else self.trace.get(cycle))
        if not batch:
            return False
        objects, ids, phases, rates = self.sched._admit_many(
            batch, self.phase_load, self.limit_units)
        self.rejected += len(batch) - len(objects)
        if objects:
            self.admitted += len(objects)
            self.pool.make_room(len(objects))
            self.pool.add(objects, ids, phases, rates, cycle)
            if self.loop is not None:
                self.serving.update(obj.name for obj in objects)
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
        finished = np.flatnonzero(pool.live
                                  & (pool.next_del >= pool.num_tracks))
        if len(finished):
            self.active -= len(finished)
            pool.live[finished] = False
            # Completed rows free their capacity, and in a closed loop
            # their title, for later batches.
            width = len(self.phase_load)
            freed = np.bincount(pool.phase[finished] % width,
                                weights=pool.rate[finished],
                                minlength=width).astype(np.int64)
            self.phase_load = [load - units for load, units
                               in zip(self.phase_load, freed.tolist())]
            if self.loop is not None:
                self.serving.subtract(
                    obj.name for obj in pool.obj[finished].tolist())
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
            # Parity held: the flagged positions in [b + d // s,
            # b + ceil(r / s)), two gathers from the prefix sum.
            before = degraded[3]
            base, divisor = pool.obj_base, self.divisor
            held = np.where(pool.live, pool.next_read - pool.next_del
                            + before[base - (-pool.next_read // divisor)]
                            - before[base + pool.next_del // divisor], 0)
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

    def exit(self) -> None:
        """The exit step, once per epoch: land the rows (see
        :meth:`RowPool.close`), and write the disk read counters and the
        buffer peaks back to the Python objects."""
        sched: CycleScheduler = self.sched
        if self.done or self.admitted:
            self.pool.close()
            disks = sched.array.disks
            loaded = np.flatnonzero(self.total_loads)
            for disk_id, reads in zip(loaded.tolist(),
                                      self.total_loads[loaded].tolist()):
                disks[disk_id].reads += reads
            sched.report.ff_engaged_cycles += self.done
        if self.done:
            sched._last_executed = None
