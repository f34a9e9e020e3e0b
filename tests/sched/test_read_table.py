"""The degraded read table's one-pass overlay against a per-group loop.

:func:`repro.sched.epoch.read_table` derives a degraded object's table
in one numpy pass: the surviving data disks in track order, each
recoverable group's parity disk inserted after its survivors, counts
``cnt - fcnt + par`` and validity ``fcnt == 0 | recoverable``.
:func:`reference_table` re-derives it one group at a time, walking the
groups that lost a member and concatenating one segment per group.
Random clustered, Improved-bandwidth and declustered farms (prime and
composite sizes), objects whose track counts leave short tail groups,
and one to three failed disks, parity disks included, must give equal
tables.
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
    """The read table, one lost group at a time."""
    disks = placement.data_disk
    parity = placement.parity_disk
    ptr = np.minimum(np.arange(len(parity) + 1, dtype=np.int64) * stripe,
                     len(disks))
    cnt = np.diff(ptr)
    nxt = ptr[1:]
    down = np.isin(disks, np.asarray(failed, dtype=np.int64))
    parity_down = np.isin(parity, np.asarray(failed, dtype=np.int64))
    if not failed or not bool(down.any()):
        return cnt, disks, nxt, stripe, None
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
    return (new_cnt, np.concatenate(segments), nxt, stripe,
            (dat, par, val))


def _farm(scheme: Scheme, num_disks: int, group_size: int,
          track_counts: list[int]) -> DataLayout:
    layout = layout_for(scheme, num_disks, group_size)
    for index, tracks in enumerate(track_counts):
        layout.place(MediaObject(f"o{index}", 0.1875, tracks, seed=index))
    return layout


def _table(layout: DataLayout, obj: MediaObject,
           failed: list[int]) -> tuple:
    """``read_table`` with the only scheduler state it reads."""
    sched = SimpleNamespace(layout=layout,
                            _stripe=layout.data_disks_per_group)
    return epoch.read_table(sched, obj, failed)  # type: ignore[arg-type]


def _assert_tables_equal(layout: DataLayout, failed: list[int]) -> None:
    stripe = layout.data_disks_per_group
    for obj in layout.objects:
        got = _table(layout, obj, failed)
        want = reference_table(layout.placement(obj.name), stripe, failed)
        for column, expected in zip(got[:3], want[:3]):
            assert column.tolist() == expected.tolist(), obj.name
        assert got[3] == want[3]
        got_deg: Optional[tuple] = got[4]
        want_deg: Optional[tuple] = want[4]
        assert (got_deg is None) == (want_deg is None), obj.name
        if got_deg is not None and want_deg is not None:
            for column, expected in zip(got_deg, want_deg):
                assert column.tolist() == expected.tolist(), obj.name


@settings(max_examples=150, deadline=None)
@given(data=st.data(), farm=st.sampled_from(FARMS),
       track_counts=st.lists(st.integers(1, 30), min_size=1, max_size=4))
def test_overlay_matches_the_per_group_loop(data: st.DataObject,
                                            farm: tuple[Scheme, int, int],
                                            track_counts: list[int]) -> None:
    scheme, num_disks, group_size = farm
    layout = _farm(scheme, num_disks, group_size, track_counts)
    failed = sorted(data.draw(st.sets(st.integers(0, num_disks - 1),
                                      min_size=1, max_size=3)))
    _assert_tables_equal(layout, failed)


@pytest.mark.parametrize("farm", FARMS, ids=lambda f: f"{f[0].value}{f[1]}")
@pytest.mark.parametrize("tail", [1, 2])
def test_a_short_tail_group_with_every_member_down(
        farm: tuple[Scheme, int, int], tail: int) -> None:
    """The last group holds ``tail`` tracks and every one is down: a
    one-track tail is rebuilt from its parity, a two-track tail (or a
    tail whose parity is down too) is unrecoverable."""
    scheme, num_disks, group_size = farm
    stripe = group_size - 1
    layout = _farm(scheme, num_disks, group_size, [2 * stripe + tail, 9])
    placement = layout.placement("o0")
    failed = sorted(set(placement.data_disk[2 * stripe:].tolist()))
    _assert_tables_equal(layout, failed)
    deg = _table(layout, layout.objects[0], failed)[4]
    assert deg is not None
    parity_up = int(placement.parity_disk[2]) not in failed
    assert bool(deg[2][2]) == (tail == 1 and parity_up)
