"""The one-pass read tables against a per-object, per-group reference.

:func:`repro.sched.epoch.flat_tables` builds every placed object's read
tables in one numpy pass over the layout's catalog-wide columns, and
applies the failure overlay once to the whole catalog: the surviving
data disks in track order, each recoverable group's parity disk
inserted after its survivors, counts ``cnt - fcnt + par`` and validity
``fcnt == 0 | recoverable``.  :func:`reference_table` re-derives one
object's table one lost group at a time, and :func:`reference_flat`
concatenates those tables object by object, position 0 idle.  Random
clustered, Improved-bandwidth and declustered farms (prime and
composite sizes), objects whose track counts leave short tail groups,
removed and re-placed objects, and zero to three failed disks, parity
disks included, must give equal tables; so must NC's per-track tables
(no overlay, whatever is down) and the empty layout's.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.layout import DataLayout, Placement, layout_for
from repro.media import MediaObject
from repro.schemes import Scheme
from repro.sched import epoch

#: (scheme, disks, C): clustered on a prime and a composite farm, IB on
#: two farm sizes, PD on a prime farm (an exact design) and a composite
#: one (phantom rows dropped).
FARMS = [
    (Scheme.STREAMING_RAID, 5, 5),
    (Scheme.STREAMING_RAID, 15, 5),
    (Scheme.IMPROVED_BANDWIDTH, 12, 4),
    (Scheme.IMPROVED_BANDWIDTH, 9, 4),
    (Scheme.PARITY_DECLUSTERED, 11, 5),
    (Scheme.PARITY_DECLUSTERED, 8, 5),
]


def reference_table(placement: Placement, stripe: int,
                    failed: list[int]) -> tuple:
    """One object's read table, one lost group at a time."""
    disks = placement.data_disk
    parity = placement.parity_disk
    ptr = np.minimum(np.arange(len(parity) + 1, dtype=np.int64) * stripe,
                     len(disks))
    cnt = np.diff(ptr)
    nxt = ptr[1:]
    down = np.isin(disks, np.asarray(failed, dtype=np.int64))
    parity_down = np.isin(parity, np.asarray(failed, dtype=np.int64))
    if not failed or not bool(down.any()):
        return cnt, disks, nxt, None
    fcnt = np.add.reduceat(down.astype(np.int64), ptr[:-1])
    recoverable = (fcnt == 1) & ~parity_down
    dat = cnt - fcnt
    par = np.zeros(len(cnt), dtype=np.int64)
    val = np.ones(len(cnt), dtype=bool)
    new_cnt = dat.copy()
    segments: list[np.ndarray] = []
    prev = 0
    for group in np.nonzero(fcnt > 0)[0]:
        lo, hi = int(ptr[group]), int(ptr[group + 1])
        if prev < lo:
            segments.append(disks[prev:lo])
        survivors = disks[lo:hi][~down[lo:hi]]
        if recoverable[group]:
            segments.append(np.append(survivors, parity[group]))
            new_cnt[group] += 1
            par[group] = 1
        else:
            segments.append(survivors)
            val[group] = False
        prev = hi
    if prev < len(disks):
        segments.append(disks[prev:])
    return new_cnt, np.concatenate(segments), nxt, (dat, par, val)


def reference_flat(layout: DataLayout, failed: list[int],
                   per_track: bool) -> tuple:
    """The per-object tables concatenated position by position, with
    healthy objects at the neutral degraded values."""
    stripe = layout.data_disks_per_group
    per_obj = []
    for obj in layout.objects:
        placement = layout.placement(obj.name)
        if per_track:
            n = len(placement.data_disk)
            per_obj.append((np.ones(n, dtype=np.int64), placement.data_disk,
                            np.arange(1, n + 1, dtype=np.int64), None))
        else:
            per_obj.append(reference_table(placement, stripe, failed))
    idle = np.zeros(1, dtype=np.int64)
    counts = np.concatenate([idle, *(e[0] for e in per_obj)])
    offsets = np.concatenate([idle, np.cumsum(counts)])
    member_disks = np.concatenate([idle[:0], *(e[1] for e in per_obj)])
    next_pointers = np.concatenate([idle, *(e[2] for e in per_obj)])
    bases = {}
    position = 1
    for obj, entry in zip(layout.objects, per_obj):
        bases[obj.name] = position
        position += len(entry[0])
    degraded: Optional[tuple] = None
    if any(e[3] is not None for e in per_obj):
        data_counts = counts.copy()
        parity_flags = np.zeros(len(counts), dtype=np.int64)
        valid = np.ones(len(counts), dtype=bool)
        for lo, entry in zip(bases.values(), per_obj):
            if entry[3] is not None:
                hi = lo + len(entry[0])
                data_counts[lo:hi], parity_flags[lo:hi], valid[lo:hi] = \
                    entry[3]
        parity_before = np.concatenate([idle, np.cumsum(parity_flags)])
        degraded = (data_counts, parity_flags, valid, parity_before)
    return (counts, offsets, member_disks, next_pointers, bases,
            1 if per_track else stripe, degraded)


def _farm(scheme: Scheme, num_disks: int, group_size: int,
          track_counts: list[int]) -> DataLayout:
    layout = layout_for(scheme, num_disks, group_size)
    for index, tracks in enumerate(track_counts):
        layout.place(MediaObject(f"o{index}", 0.1875, tracks, seed=index))
    return layout


def _tables(layout: DataLayout, failed: list[int],
            per_track: bool = False) -> tuple:
    """``flat_tables`` with the only scheduler state it reads."""
    sched = SimpleNamespace(
        layout=layout, _stripe=layout.data_disks_per_group,
        _ff_per_track=per_track, array=SimpleNamespace(failed_ids=failed),
        _ff_tables=None, _ff_tables_key=None,
        _plan_cache_key=(layout.epoch, len(failed)))
    return epoch.flat_tables(sched)  # type: ignore[arg-type]


def _assert_tables_equal(layout: DataLayout, failed: list[int],
                         per_track: bool = False) -> tuple:
    got = _tables(layout, failed, per_track)
    want = reference_flat(layout, failed, per_track)
    for index in range(4):
        assert got[index].dtype == want[index].dtype == np.int64
        assert got[index].tolist() == want[index].tolist(), index
    assert got[4] == want[4]
    assert got[5] == want[5]
    assert (got[6] is None) == (want[6] is None)
    if got[6] is not None:
        for column, expected in zip(got[6], want[6]):
            assert column.dtype == expected.dtype
            assert column.tolist() == expected.tolist()
    return got


@settings(max_examples=150, deadline=None)
@given(data=st.data(), farm=st.sampled_from(FARMS),
       track_counts=st.lists(st.integers(1, 30), min_size=1, max_size=5),
       replaced=st.booleans())
def test_one_pass_tables_match_the_per_object_reference(
        data: st.DataObject, farm: tuple[Scheme, int, int],
        track_counts: list[int], replaced: bool) -> None:
    scheme, num_disks, group_size = farm
    layout = _farm(scheme, num_disks, group_size, track_counts)
    if replaced:
        # Remove one object and place a new one into the freed slots:
        # the view follows the new placement order.
        name = f"o{data.draw(st.integers(0, len(track_counts) - 1))}"
        layout.remove(name)
        layout.place(MediaObject("re", 0.1875,
                                 data.draw(st.integers(1, 30)), seed=77))
    failed = sorted(data.draw(st.sets(st.integers(0, num_disks - 1),
                                      max_size=3)))
    _assert_tables_equal(layout, failed)


@pytest.mark.parametrize("farm", FARMS, ids=lambda f: f"{f[0].value}{f[1]}")
@pytest.mark.parametrize("tail", [1, 2])
def test_a_short_tail_group_with_every_member_down(
        farm: tuple[Scheme, int, int], tail: int) -> None:
    """The first object's last group holds ``tail`` tracks and every
    one is down: a one-track tail is rebuilt from its parity, a
    two-track tail (or a tail whose parity is down too) is
    unrecoverable."""
    scheme, num_disks, group_size = farm
    stripe = group_size - 1
    layout = _farm(scheme, num_disks, group_size, [2 * stripe + tail, 9])
    placement = layout.placement("o0")
    failed = sorted(set(placement.data_disk[2 * stripe:].tolist()))
    deg = _assert_tables_equal(layout, failed)[6]
    assert deg is not None
    parity_up = int(placement.parity_disk[2]) not in failed
    assert bool(deg[2][3]) == (tail == 1 and parity_up)  # o0's group 2


@settings(max_examples=40, deadline=None)
@given(data=st.data(),
       track_counts=st.lists(st.integers(1, 30), min_size=1, max_size=4))
def test_nc_per_track_tables_carry_no_overlay(
        data: st.DataObject, track_counts: list[int]) -> None:
    """NC's tables step a track at a time and stay healthy whatever is
    down: the engine runs them only while no cluster is degraded."""
    layout = _farm(Scheme.NON_CLUSTERED, 15, 5, track_counts)
    failed = sorted(data.draw(st.sets(st.integers(0, 14), max_size=3)))
    got = _assert_tables_equal(layout, failed, per_track=True)
    assert got[2] is layout.columns.data_disk


@pytest.mark.parametrize("per_track", [False, True])
def test_the_empty_layout_holds_only_the_idle_position(
        per_track: bool) -> None:
    layout = layout_for(Scheme.STREAMING_RAID, 10, 5)
    got = _assert_tables_equal(layout, [1, 2], per_track)
    assert got[0].tolist() == [0] and got[1].tolist() == [0, 0]


def test_healthy_tables_live_with_the_layout_view() -> None:
    """The healthy tables are built once per placement state: a fault
    that downs no data member (a parity disk here) hands them back, and
    a placement change drops them with the view."""
    layout = _farm(Scheme.STREAMING_RAID, 10, 5, [9, 13])
    parity_disk = int(layout.placement("o0").parity_disk[0])
    healthy = _tables(layout, [])
    assert _tables(layout, [parity_disk]) is healthy
    assert healthy[2] is layout.columns.data_disk
    layout.place(MediaObject("later", 0.1875, 7, seed=5))
    assert _tables(layout, [])[0] is not healthy[0]
    _assert_tables_equal(layout, [])
