"""The epoch engine's row pool: one fill, neutral tail rows, compaction.

The fast == scalar fingerprints in ``test_fast_forward`` cover what the
engine computes; these tests pin the :class:`~repro.sched.epoch.RowPool`
invariants those results rest on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.schemes import Scheme
from repro.sched import epoch
from repro.sched.epoch import RowPool
from repro.server.stream import StreamStatus
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
    assert [s.object.name for s in entry.streams] == ["m0", late]
    assert [s.stream_id for s in batch.streams] == [0, 1]
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
    live = len(pool.streams)
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
    not fit in the old size.  Retiring row 1 also prunes its stream
    from the scheduler's live index."""
    pool, streams = _pool_of_four()
    pool.live[1] = False
    pool.next_del[1] = streams[1].num_tracks
    pool.make_room(incoming)
    if incoming == 0:
        assert pool.streams == streams and len(pool.live) == 4
        return
    assert len(pool.live) == size
    assert pool.streams == [streams[0], streams[2], streams[3]]
    assert pool.next_read[:3].tolist() == [10, 12, 13]
    assert pool.live.tolist() == [True] * 3 + [False] * (size - 3)
    assert streams[1].status is StreamStatus.COMPLETED
    assert streams[1].next_read_track == 11
    # The retired stream leaves the scheduler's live index with its row.
    assert list(pool.sched._live) == [s.stream_id for s in pool.streams]
