"""The one-pass lost-track sweep against the per-object loop it replaced.

:meth:`~repro.sched.base.CycleScheduler._current_lost_tracks` finds the
data tracks no surviving disk or parity can rebuild in one pass over the
layout's catalog-wide columns: each down track's global group, one
``bincount`` plus the failed parity disks, and the lost tracks mapped
back to their objects through the objects' first tracks.
:func:`reference_lost` is the loop it replaced, one object at a time.
Clustered, Improved-bandwidth and declustered farms, objects whose
track counts leave short tail groups, an object removed and another
placed into its freed slots, and two to four failed disks, parity disks
included, must give equal dicts.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.layout import DataLayout
from repro.media import MediaObject
from repro.schemes import Scheme
from repro.sched.base import CycleScheduler
from tests.sched.test_read_table import FARMS, _farm


def reference_lost(layout: DataLayout, failed: list[int]) -> dict:
    """The lost tracks, one object at a time."""
    stripe = layout.data_disks_per_group
    down = np.zeros(layout.num_disks, dtype=bool)
    down[failed] = True
    lost: dict[str, set[int]] = {}
    for obj in layout.objects:
        placement = layout.placement(obj.name)
        tracks = np.flatnonzero(down[placement.data_disk])
        if not len(tracks):
            continue
        groups = tracks // stripe
        blocks_down = np.bincount(
            groups, minlength=len(placement.parity_disk)) \
            + down[placement.parity_disk]
        gone = tracks[blocks_down[groups] >= 2]
        if len(gone):
            lost[obj.name] = set(gone.tolist())
    return lost


def _sweep(layout: DataLayout, failed: list[int]) -> dict:
    """``_current_lost_tracks`` with the only scheduler state it reads."""
    sched = SimpleNamespace(layout=layout,
                            array=SimpleNamespace(failed_ids=failed),
                            _stripe=layout.data_disks_per_group)
    return CycleScheduler._current_lost_tracks(sched)  # type: ignore[arg-type]


@settings(max_examples=150, deadline=None)
@given(data=st.data(), farm=st.sampled_from(FARMS),
       track_counts=st.lists(st.integers(1, 30), min_size=1, max_size=5),
       replaced=st.booleans())
def test_one_pass_sweep_matches_the_per_object_loop(
        data: st.DataObject, farm: tuple[Scheme, int, int],
        track_counts: list[int], replaced: bool) -> None:
    scheme, num_disks, group_size = farm
    layout = _farm(scheme, num_disks, group_size, track_counts)
    if replaced:
        name = f"o{data.draw(st.integers(0, len(track_counts) - 1))}"
        layout.remove(name)
        layout.place(MediaObject("re", 0.1875,
                                 data.draw(st.integers(1, 30)), seed=77))
    # Half the examples fail a disk that holds some group's parity.
    parity = sorted(set(layout.columns.parity_disk.tolist()))
    failed = data.draw(st.sets(st.integers(0, num_disks - 1),
                               min_size=2, max_size=4))
    if data.draw(st.booleans()) and len(failed) < 4:
        failed.add(data.draw(st.sampled_from(parity)))
    failed_ids = sorted(failed)
    assert _sweep(layout, failed_ids) == reference_lost(layout, failed_ids)


def test_two_members_down_lose_both_tracks() -> None:
    """Two data members of one group down: both tracks are lost, under
    the object that owns them, with other objects placed around it."""
    layout = _farm(Scheme.STREAMING_RAID, 15, 5, [9, 13, 6])
    placement = layout.placement("o1")
    failed = sorted(placement.data_disk[4:6].tolist())  # o1's group 1
    lost = _sweep(layout, failed)
    assert lost == reference_lost(layout, failed)
    assert lost["o1"] >= {4, 5}


def test_one_failure_loses_nothing() -> None:
    layout = _farm(Scheme.PARITY_DECLUSTERED, 11, 5, [9, 13])
    assert _sweep(layout, [3]) == {} == reference_lost(layout, [3])
