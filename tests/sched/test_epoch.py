"""The epoch engine's row pool: one column writer, neutral tail rows,
compaction, and the row transfers between streams and columns.

The fast == scalar fingerprints in ``test_fast_forward`` cover what the
engine computes; these tests pin the :class:`~repro.sched.epoch.RowPool`
invariants those results rest on.  :meth:`RowPool.fill` writes whole
columns; :func:`reference_fill` is the per-row loop it must equal, a
row admitted in the epoch (:meth:`RowPool.add`, no stream) must equal
the row its stream would fill, and a fill followed by a write-back of
the unchanged rows must leave every stream as it was.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.schemes import ALL_IMPLEMENTED_SCHEMES, Scheme
from repro.sched import epoch
from repro.sched.epoch import RowPool
from repro.server import MultimediaServer
from repro.server.stream import Stream, StreamStatus
from tests.conftest import tiny_catalog
from tests.sched.test_fast_forward import _mixed_rate_catalog, _scheme_server

#: (scheme, object admitted mid-epoch): a rate-3 NC stream is paced, an
#: SG stream is phase-gated.
FILL_CASES = [
    pytest.param(Scheme.NON_CLUSTERED, "fast", id="NC-rate3-paced"),
    pytest.param(Scheme.STAGGERED_GROUP, "m1", id="SG-phase-gated"),
]


def _columns(pool: RowPool) -> dict[str, np.ndarray]:
    return {name: getattr(pool, name) for name in RowPool.__slots__
            if isinstance(getattr(pool, name), np.ndarray)}


def _entered(scheme: Scheme, late: str, admit_first: bool,
             ) -> epoch._Epoch:
    """An epoch entered at cycle 3 on a server whose ``m0`` stream has
    run three scalar cycles; ``late`` is admitted before the entry
    (scalar front door) or in the epoch's first cycle (batch).  Either
    pool starts at ``_ROW_FLOOR`` rows, so it has rows to spare."""
    server = _scheme_server(scheme, catalog=_mixed_rate_catalog())
    server.admit("m0")
    server.run_cycles(3)
    sched = server.scheduler
    obj = server.catalog.get(late)
    if admit_first:
        sched.admit(obj)
    sched._refresh_plan_cache()
    engine = epoch._Epoch()
    arrivals = {} if admit_first else {3: (obj,)}
    assert engine.enter(sched, arrivals) is None
    if not admit_first:
        engine.admit(3)
    return engine


@pytest.mark.parametrize("scheme, late", FILL_CASES)
def test_batch_fill_matches_entry_fill(scheme: Scheme, late: str) -> None:
    entry = _entered(scheme, late, admit_first=True).pool
    batch = _entered(scheme, late, admit_first=False).pool
    assert [obj.name for obj in entry.obj[:entry.rows]] == ["m0", late]
    assert batch.ids[:batch.rows].tolist() == [0, 1]
    # The in-epoch admission is a row alone: no stream object.
    assert list(entry.streams) == [0, 1] and list(batch.streams) == [0]
    entry_rows = {name: column[1] for name, column in _columns(entry).items()}
    batch_rows = {name: column[1] for name, column in _columns(batch).items()}
    assert entry_rows == batch_rows
    assert entry_rows["waiting"] and entry_rows["live"]
    if scheme is Scheme.NON_CLUSTERED:
        assert entry_rows["rate"] == 3 and entry_rows["pace_rate"] == 3
        assert entry.paced and batch.paced
        assert entry.max_rate == batch.max_rate == 3
    else:
        assert entry_rows["phase_mod"] == 4 and entry_rows["phase_val"] == 1
        assert entry.gated and batch.gated


@pytest.mark.parametrize("scheme, late", FILL_CASES)
def test_rows_past_the_streams_stay_neutral(scheme: Scheme,
                                            late: str) -> None:
    engine = _entered(scheme, late, admit_first=False)
    sched = engine.sched
    for _ in range(3):
        staged = engine.stage(sched.cycle_index)
        assert not isinstance(staged, str), staged
        engine.commit(sched.cycle_index, staged, [])
    pool = engine.pool
    neutral = RowPool(len(pool.live), sched, pool.bases, pool.degraded)
    live = pool.rows
    assert live < len(pool.live)
    for name, column in _columns(pool).items():
        assert np.array_equal(column[live:], getattr(neutral, name)[live:]), \
            name


def _pool_of_four() -> tuple[RowPool, list]:
    server = _scheme_server(Scheme.STREAMING_RAID,
                            catalog=tiny_catalog(4, tracks=40))
    sched = server.scheduler
    streams = [server.admit(name) for name in server.catalog.names()[:4]]
    sched._refresh_plan_cache()
    tables = epoch.flat_tables(sched)
    pool = RowPool(4, sched, tables[4], tables[6])
    pool.fill(streams)
    pool.next_read[:] = [10, 11, 12, 13]
    return pool, streams


@pytest.mark.parametrize("incoming, size", [(0, 4), (1, 4), (3, 8),
                                            (10, 13)])
def test_compaction_keeps_survivors_in_order(incoming: int,
                                             size: int) -> None:
    """Row 1 finished: the survivors keep their order, and the pool grows
    to ``max(need, 2 x size)`` only when they and the incoming rows do
    not fit in the old size.  Retiring row 1 completes its stream in
    place; it leaves the scheduler's live index at the next prune."""
    pool, streams = _pool_of_four()
    pool.live[1] = False
    pool.next_del[1] = streams[1].num_tracks
    pool.make_room(incoming)
    if incoming == 0:
        assert pool.ids[:pool.rows].tolist() == [0, 1, 2, 3]
        assert len(pool.live) == 4
        return
    assert len(pool.live) == size
    assert pool.ids[:pool.rows].tolist() == [0, 2, 3]
    assert pool.next_read[:3].tolist() == [10, 12, 13]
    assert pool.live.tolist() == [True] * 3 + [False] * (size - 3)
    assert streams[1].status is StreamStatus.COMPLETED
    assert streams[1].next_read_track == 11
    # Retirement prunes nothing: the live index still holds the stream,
    # and the next prune drops exactly it.
    sched = pool.sched
    assert list(sched._live) == [0, 1, 2, 3]
    sched._prune_live()
    assert list(sched._live) == [0, 2, 3]


def reference_fill(pool: RowPool, streams: list[Stream]) -> None:
    """:meth:`RowPool.fill`, one item assignment per column and row; the
    scheme's gate parameters from one-row columns."""
    sched = pool.sched
    k_prime = sched.config.k_prime
    lo = i = pool.rows
    for stream in streams:
        pool.streams[stream.stream_id] = stream
        pool.ids[i] = stream.stream_id
        pool.obj[i] = stream.object
        pool.phase[i] = stream.phase
        pool.admitted[i] = stream.admitted_cycle
        pool.obj_base[i] = pool.bases[stream.object.name]
        pool.next_read[i] = stream.next_read_track
        pool.next_del[i] = stream.next_delivery_track
        pool.num_tracks[i] = stream.num_tracks
        pool.rate[i] = stream.rate
        if stream.delivery_start_cycle is not None:
            pool.start[i] = stream.delivery_start_cycle
        pool.quota[i] = k_prime * stream.rate
        gate = sched._ff_gate_params(np.array([stream.phase]),
                                     np.array([stream.rate]),
                                     np.array([stream.admitted_cycle]))
        (pool.pace_rate[i], pool.pace_base[i], pool.phase_mod[i],
         pool.phase_val[i]) = (np.broadcast_to(value, 1)[0]
                               for value in gate)
        pool.waiting[i] = stream.status is StreamStatus.ADMITTED
        pool.peak0[i] = pool.peak[i] = sched.tracker.stream_peak(
            stream.stream_id)
        i += 1
    pool.rows = i
    pool.live[lo:i] = True
    pool.unpaced[lo:i] = pool.pace_rate[lo:i] == 0
    pool.paced = pool.paced or not bool(pool.unpaced[lo:i].all())
    pool.gated = pool.gated or bool((pool.phase_mod[lo:i] != 1).any())
    pool.max_rate = max(pool.max_rate, int(pool.rate[lo:i].max(initial=1)))


def _mixed_server(scheme: Scheme) -> MultimediaServer:
    """``m0`` and the rate-3 ``fast`` run three scalar cycles (started,
    buffers held, tracker peaks raised); ``m1`` arrives after them."""
    server = _scheme_server(scheme, catalog=_mixed_rate_catalog())
    server.admit("m0")
    server.admit("fast")
    server.run_cycles(3)
    server.admit("m1")
    return server


def _stream_state(stream: Stream) -> tuple:
    return (stream.status, stream.is_active, stream.next_read_track,
            stream.next_delivery_track, stream.delivery_start_cycle,
            stream.delivered_tracks, stream.hiccup_count,
            stream.reconstructed_tracks, sorted(stream.buffer),
            sorted(stream.parity_buffer), sorted(stream.accumulators),
            sorted(stream.lost_tracks))


@pytest.mark.parametrize("scheme", ALL_IMPLEMENTED_SCHEMES,
                         ids=lambda s: s.value)
def test_fill_matches_per_row_reference(scheme: Scheme) -> None:
    """Started and unstarted rows, rate 1 and rate 3, raised tracker
    peaks, NC pacing and SG phase gates: the column fill writes what the
    per-row loop writes, in an entry's fill and in a later batch's."""
    server = _mixed_server(scheme)
    sched = server.scheduler
    streams = list(sched._live.values())
    assert [s.object.name for s in streams] == ["m0", "fast", "m1"]
    assert streams[0].delivery_start_cycle is not None
    assert streams[2].delivery_start_cycle is None
    assert all(sched.tracker.stream_peak(s.stream_id) > 0
               for s in streams[:2])
    sched._refresh_plan_cache()
    tables = epoch.flat_tables(sched)
    ours, theirs = (RowPool(8, sched, tables[4], tables[6])
                    for _ in range(2))
    for batch in (streams[:2], streams[2:], []):
        ours.fill(batch)
        reference_fill(theirs, batch)
    assert ours.streams == theirs.streams \
        == {stream.stream_id: stream for stream in streams}
    assert ours.rows == theirs.rows == 3
    for name, column in _columns(ours).items():
        assert column.dtype == getattr(theirs, name).dtype, name
        assert np.array_equal(column, getattr(theirs, name)), name
    assert (ours.paced, ours.gated, ours.max_rate) == \
        (theirs.paced, theirs.gated, theirs.max_rate)
    assert ours.max_rate == 3
    assert ours.paced is (scheme is Scheme.NON_CLUSTERED)
    assert ours.gated is (scheme is Scheme.STAGGERED_GROUP)


@pytest.mark.parametrize("scheme", ALL_IMPLEMENTED_SCHEMES,
                         ids=lambda s: s.value)
def test_admitted_rows_match_the_fill_of_their_streams(scheme: Scheme,
                                                       ) -> None:
    """Rows admitted in the epoch are written from the admission's
    columns (:meth:`RowPool.add`: objects, ids, phases, rates, cycle)
    with no stream object, and equal the rows the per-row reference
    writes for the streams the scalar front door builds from the same
    decision: a rate-1 and a rate-3 arrival after two started rows."""
    server = _mixed_server(scheme)
    server.admit("fast")
    sched = server.scheduler
    streams = list(sched._live.values())
    late = streams[2:]
    assert [(s.object.name, s.rate) for s in late] == [("m1", 1),
                                                       ("fast", 3)]
    sched._refresh_plan_cache()
    tables = epoch.flat_tables(sched)
    ours, theirs = (RowPool(8, sched, tables[4], tables[6])
                    for _ in range(2))
    ours.fill(streams[:2])
    ours.add([s.object for s in late],
             range(late[0].stream_id, late[-1].stream_id + 1),
             [s.phase for s in late], [s.rate for s in late], 3)
    reference_fill(theirs, streams)
    assert list(ours.streams) == [s.stream_id for s in streams[:2]]
    assert ours.rows == theirs.rows == 4
    for name, column in _columns(ours).items():
        assert column.dtype == getattr(theirs, name).dtype, name
        assert np.array_equal(column, getattr(theirs, name)), name
    assert (ours.paced, ours.gated, ours.max_rate) == \
        (theirs.paced, theirs.gated, theirs.max_rate)


#: Round-trip states: every scheme healthy, and the group schemes after
#: disk 1 failed and enough scalar cycles that a stream holds parity
#: (degraded tables).
ROUND_TRIPS = [pytest.param(scheme, 0, id=f"{scheme.value}-healthy")
               for scheme in ALL_IMPLEMENTED_SCHEMES] + [
    pytest.param(scheme, cycles, id=f"{scheme.value}-degraded")
    for scheme, cycles in ((Scheme.STREAMING_RAID, 2),
                           (Scheme.STAGGERED_GROUP, 3),
                           (Scheme.IMPROVED_BANDWIDTH, 2),
                           (Scheme.PARITY_DECLUSTERED, 1))]


@pytest.mark.parametrize("scheme, degraded_cycles", ROUND_TRIPS)
def test_fill_then_write_back_changes_no_stream(scheme: Scheme,
                                                degraded_cycles: int,
                                                ) -> None:
    """An entry's fill, then a write-back of the unchanged rows, leaves
    every stream's pointers, status, counters and buffer keys, and the
    tracker's peaks, as they were."""
    server = _mixed_server(scheme)
    sched = server.scheduler
    if degraded_cycles:
        server.fail_disk(1)
        server.run_cycles(degraded_cycles)
    before = {sid: _stream_state(s) for sid, s in sched.streams.items()}
    peaks = {sid: sched.tracker.stream_peak(sid) for sid in sched.streams}
    sched._refresh_plan_cache()
    engine = epoch._Epoch()
    assert engine.enter(sched, {}) is None
    pool = engine.pool
    assert len(pool.streams) == 3
    if degraded_cycles:
        assert pool.degraded is not None
        assert any(s.parity_buffer for s in pool.streams.values())
    pool.write_back(np.arange(pool.rows))
    assert {sid: _stream_state(s) for sid, s in sched.streams.items()} \
        == before
    assert {sid: sched.tracker.stream_peak(sid)
            for sid in sched.streams} == peaks
