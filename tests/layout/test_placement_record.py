"""Differential property: the placement record against a per-block model.

:class:`ReferenceLayout` re-derives every placement one block at a time
from the paper's closed forms — round-robin clusters with a dedicated
parity disk (Section 2), Improved-bandwidth parity on the next cluster
at the object's rank slot (Section 4), and the declustered design's
diagonal arithmetic progressions with phantom rows dropped — and
allocates each block with a LIFO free list: pop the most recently freed
slot of the disk, else grow its high-water mark.  Random sequences of
``place`` (with and without a start cluster), ``remove`` and re-``place``
must leave the layout and the model agreeing on every address, every
per-disk slot count, each disk's block order, the ``block_at`` reverse
lookup and the ``placement_demand`` forecast.  Placements after removals
consume freed slots, so the exact free-list order is pinned too.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.layout import (
    BlockKind,
    ClusteredParityLayout,
    DataLayout,
    DeclusteredParityLayout,
    DiskAddress,
    ImprovedBandwidthLayout,
    StoredBlock,
)
from repro.media import MediaObject

#: (family, disks, C).  The prime PD farm has an exact 110-row design;
#: the composite one is designed over Z_11 and keeps 12 of its 110 rows
#: (phantom rows dropped), so long objects wrap past the design.
FARMS = [
    ("clustered", 15, 5),
    ("improved", 12, 4),
    ("declustered", 11, 5),
    ("declustered", 8, 5),
]


def _smallest_prime_at_least(n: int) -> int:
    candidate = n
    while any(candidate % d == 0 for d in range(2, candidate)):
        candidate += 1
    return candidate


class ReferenceLayout:
    """Per-block placement from closed forms and a LIFO free list."""

    def __init__(self, family: str, num_disks: int, group_size: int) -> None:
        self.family = family
        self.num_disks = num_disks
        self.group_size = group_size
        self.stripe = group_size - 1
        self.next_position = [0] * num_disks
        self.free: list[list[int]] = [[] for _ in range(num_disks)]
        self.contents: list[list[StoredBlock]] = [[] for _ in
                                                  range(num_disks)]
        #: name -> (data addresses by track, parity addresses by group)
        self.placed: dict[str, tuple[list[DiskAddress],
                                     list[DiskAddress]]] = {}
        self.ranks: dict[str, int] = {}
        if family == "clustered":
            self.num_clusters = num_disks // group_size
        elif family == "improved":
            self.num_clusters = num_disks // self.stripe
        else:
            self.num_clusters = num_disks
            p = _smallest_prime_at_least(num_disks)
            raw = [self._raw_row(p, r) for r in range(p * (p - 1))]
            self.rows = [row for row in raw if max(row) < num_disks]

    def _raw_row(self, p: int, raw_index: int) -> list[int]:
        j, s = raw_index % p, 1 + raw_index % (p - 1)
        return [(j + i * s) % p for i in range(self.group_size)]

    def _rank(self, name: str) -> int:
        return self.ranks.setdefault(name, len(self.ranks))

    def _group_disks(self, name: str, start: int,
                     group: int) -> tuple[list[int], int]:
        """``(data disks, parity disk)`` of one group."""
        if self.family == "declustered":
            index = start + group
            row = self.rows[index % len(self.rows)]
            slot = index % self.group_size
            return row[:slot] + row[slot + 1:], row[slot]
        cluster = (start + group) % self.num_clusters
        if self.family == "clustered":
            first = cluster * self.group_size
            return (list(range(first, first + self.stripe)),
                    first + self.stripe)
        nxt = (cluster + 1) % self.num_clusters
        slot = (self._rank(name) + group + group // self.num_clusters) \
            % self.stripe
        first = cluster * self.stripe
        return (list(range(first, first + self.stripe)),
                nxt * self.stripe + slot)

    def blocks(self, obj: MediaObject,
               start: int) -> Iterator[tuple[BlockKind, int, int]]:
        """``(kind, index, disk)`` in allocation order."""
        groups = -(-obj.num_tracks // self.stripe)
        for group in range(groups):
            data, parity = self._group_disks(obj.name, start, group)
            for offset, disk in enumerate(data):
                track = group * self.stripe + offset
                if track < obj.num_tracks:
                    yield BlockKind.DATA, track, disk
            yield BlockKind.PARITY, group, parity

    def start_for(self, start: Optional[int]) -> int:
        return len(self.placed) % self.num_clusters if start is None \
            else start

    def demand(self, obj: MediaObject, start: Optional[int]) -> dict[int, int]:
        start = self.start_for(start)
        return dict(Counter(disk for _k, _i, disk in self.blocks(obj, start)))

    def place(self, obj: MediaObject, start: Optional[int]) -> None:
        start = self.start_for(start)
        data: list[DiskAddress] = []
        parity: list[DiskAddress] = []
        for kind, index, disk in self.blocks(obj, start):
            if self.free[disk]:
                position = self.free[disk].pop()
            else:
                position = self.next_position[disk]
                self.next_position[disk] += 1
            (data if kind is BlockKind.DATA else parity).append(
                DiskAddress(disk, position))
            self.contents[disk].append(StoredBlock(obj.name, kind, index))
        self.placed[obj.name] = (data, parity)

    def remove(self, name: str) -> list[DiskAddress]:
        data, parity = self.placed.pop(name)
        for address in data + parity:
            self.free[address.disk_id].append(address.position)
        for disk in range(self.num_disks):
            self.contents[disk] = [b for b in self.contents[disk]
                                   if b.object_name != name]
        return data + parity


def _make(family: str, num_disks: int, group_size: int) -> DataLayout:
    cls = {"clustered": ClusteredParityLayout,
           "improved": ImprovedBandwidthLayout,
           "declustered": DeclusteredParityLayout}[family]
    return cls(num_disks, group_size)


def _assert_agree(layout: DataLayout, ref: ReferenceLayout) -> None:
    assert [obj.name for obj in layout.objects] == list(ref.placed)
    for name, (data, parity) in ref.placed.items():
        assert [layout.data_address(name, t)
                for t in range(len(data))] == data
        assert [layout.parity_address(name, g)
                for g in range(len(parity))] == parity
        for track, address in enumerate(data):
            assert layout.block_at(address.disk_id, address.position) \
                == StoredBlock(name, BlockKind.DATA, track)
        for group, address in enumerate(parity):
            assert layout.block_at(address.disk_id, address.position) \
                == StoredBlock(name, BlockKind.PARITY, group)
    for disk in range(ref.num_disks):
        assert layout.used_positions(disk) == ref.next_position[disk]
        assert layout.occupied_positions(disk) == \
            ref.next_position[disk] - len(ref.free[disk])
        assert layout.blocks_on_disk(disk) == ref.contents[disk]


OPS = st.lists(st.one_of(
    st.tuples(st.just("place"), st.integers(1, 30),
              st.none() | st.integers(0, 10_000)),
    st.tuples(st.just("remove"), st.integers(0, 10_000), st.none()),
    st.tuples(st.just("replace"), st.integers(0, 10_000),
              st.none() | st.integers(0, 10_000)),
), min_size=1, max_size=20)


@pytest.mark.parametrize("family,num_disks,group_size", FARMS)
@settings(max_examples=40, deadline=None)
@given(ops=OPS)
def test_record_matches_per_block_reference(family, num_disks, group_size,
                                            ops):
    layout = _make(family, num_disks, group_size)
    ref = ReferenceLayout(family, num_disks, group_size)
    objects: dict[str, MediaObject] = {}
    removed: list[MediaObject] = []
    for op, value, start in ops:
        if op == "remove":
            if not ref.placed:
                continue
            name = list(ref.placed)[value % len(ref.placed)]
            assert layout.remove(name) == ref.remove(name)
            removed.append(objects[name])
            _assert_agree(layout, ref)
            continue
        if op == "replace":
            if not removed:
                continue
            obj = removed.pop(value % len(removed))
        else:
            name = f"o{len(objects)}"
            obj = objects[name] = MediaObject(name, 0.1875, value,
                                              seed=len(objects))
        if start is not None:
            start %= ref.num_clusters
        assert layout.placement_demand(obj, start_cluster=start) == \
            ref.demand(obj, start)
        layout.place(obj, start_cluster=start)
        ref.place(obj, start)
        _assert_agree(layout, ref)
