"""The abstract data-layout interface.

A layout answers, for every object in a catalog:

* where each data track lives (``data_address``);
* which parity group a track belongs to (``group_of``);
* the full physical footprint of a group (``group_span``);
* what a given disk holds (``blocks_on_disk``) — needed to work out which
  streams a disk failure touches;
* whether a set of simultaneous failures is *catastrophic*, i.e. some
  parity group has lost two or more members (Section 1).

Every answer derives from one record per object, a :class:`Placement`:
the disk and slot position of each data track and each parity block,
as read-only int64 columns.

Layouts also know how to *materialise* themselves onto a
:class:`~repro.disk.drive.DiskArray`: writing deterministic track payloads
and their XOR parity so reconstruction can be verified byte-for-byte.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from repro.disk.drive import DiskArray
from repro.errors import ConfigurationError, LayoutError
from repro.layout.address import BlockKind, DiskAddress, GroupSpan, StoredBlock
from repro.media.catalog import Catalog
from repro.media.objects import MediaObject
from repro.parity.xor import xor_blocks, xor_matrix
from repro.units import mb_to_bytes

@dataclass(frozen=True, slots=True)
class Placement:
    """Where one placed object lives: the layout's only placement store.

    ``data_disk[t]``/``data_pos[t]`` address data track ``t``;
    ``parity_disk[g]``/``parity_pos[g]`` the parity block of group ``g``.
    The columns are int64 and read-only: the epoch engine's read tables
    share them without copying.
    """

    obj: MediaObject
    start: int
    data_disk: np.ndarray
    data_pos: np.ndarray
    parity_disk: np.ndarray
    parity_pos: np.ndarray


def allocation_slots(num_tracks: int, stripe: int,
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Each data track's and each parity block's index in the order
    :meth:`DataLayout.place` allocates: a group's members, then its
    parity, group by group."""
    tracks = np.arange(num_tracks, dtype=np.int64)
    groups = np.arange(-(-num_tracks // stripe), dtype=np.int64)
    return (tracks + tracks // stripe,
            np.minimum((groups + 1) * stripe, num_tracks) + groups)


def _frozen(column: np.ndarray) -> np.ndarray:
    column.flags.writeable = False
    return column


class DataLayout(abc.ABC):
    """Common machinery for parity-group layouts.

    Concrete subclasses decide cluster geometry and parity placement by
    implementing :meth:`_group_disks`, one closed form over all of an
    object's groups; everything else (per-disk slot allocation, lookups,
    catastrophe detection, materialisation) is shared.
    """

    def __init__(self, num_disks: int, parity_group_size: int) -> None:
        if parity_group_size < 2:
            raise ConfigurationError(
                f"parity group size must be >= 2, got {parity_group_size}"
            )
        if num_disks < parity_group_size:
            raise ConfigurationError(
                f"need at least C={parity_group_size} disks, got {num_disks}"
            )
        self.num_disks = num_disks
        self.parity_group_size = parity_group_size
        #: Every placed object's record, in placement order.
        self._placements: dict[str, Placement] = {}
        self._next_position = [0] * num_disks
        #: Track slots freed by removed objects, reused before the
        #: high-water mark grows (the tertiary purge/reload cycle of
        #: Section 1 swaps objects in and out of the same disks).
        self._free_positions: dict[int, list[int]] = {
            disk_id: [] for disk_id in range(num_disks)
        }
        #: Placement epoch: bumped whenever addresses change (place/remove).
        #: Schedulers key their cycle-plan caches on this.
        self._epoch = 0
        # Object-set views, rebuilt lazily after a placement change.
        self._names_cache: Optional[frozenset[str]] = None
        self._block_index: Optional[dict[tuple[int, int], StoredBlock]] = None

    # -- cache management ---------------------------------------------------

    @property
    def epoch(self) -> int:
        """Monotonic counter of placement changes (place/remove calls)."""
        return self._epoch

    def _record_delta(self) -> None:
        """Bump the epoch for one placement change.

        The object-set views (:attr:`object_names`, the block reverse
        index) are rebuilt lazily afterwards.
        """
        self._epoch += 1
        self._names_cache = None
        self._block_index = None

    # -- geometry to be provided by subclasses ---------------------------

    @property
    @abc.abstractmethod
    def num_clusters(self) -> int:
        """Number of clusters the disks are grouped into."""

    @property
    @abc.abstractmethod
    def data_disks_per_group(self) -> int:
        """Data blocks per parity group (``C - 1``)."""

    @abc.abstractmethod
    def cluster_of(self, disk_id: int) -> int:
        """Cluster index of a disk."""

    @abc.abstractmethod
    def cluster_disks(self, cluster: int) -> list[int]:
        """Disk ids of one cluster, ascending."""

    @abc.abstractmethod
    def is_parity_disk(self, disk_id: int) -> bool:
        """True if the disk is *dedicated* to parity (clustered layouts)."""

    @abc.abstractmethod
    def _group_disks(self, obj: MediaObject, start: int,
                     ) -> tuple[np.ndarray, np.ndarray]:
        """``(data[G, C-1], parity[G])``: the disk of every data slot and
        of the parity block of each of ``obj``'s ``G`` groups, when its
        first group goes to cluster ``start``."""

    # -- placement --------------------------------------------------------

    @property
    def objects(self) -> list[MediaObject]:
        """Objects placed so far, in placement order."""
        return [placement.obj for placement in self._placements.values()]

    def _start_for(self, obj: MediaObject,
                   start_cluster: Optional[int]) -> int:
        if obj.name in self._placements:
            raise LayoutError(f"object {obj.name!r} already placed")
        if start_cluster is None:
            start_cluster = len(self._placements) % self.num_clusters
        if not 0 <= start_cluster < self.num_clusters:
            raise LayoutError(
                f"start cluster {start_cluster} out of range "
                f"(0..{self.num_clusters - 1})"
            )
        return start_cluster

    def _disk_columns(self, obj: MediaObject,
                      start: int) -> tuple[np.ndarray, np.ndarray]:
        """The data disk of every track and the parity disk of every
        group (a short tail group drops its unused slots)."""
        data, parity = self._group_disks(obj, start)
        return data.reshape(-1)[:obj.num_tracks], parity

    def place(self, obj: MediaObject, start_cluster: Optional[int] = None) -> None:
        """Assign disk addresses to every track and parity block of ``obj``.

        Parity groups are allocated round-robin over clusters starting at
        ``start_cluster`` (Section 2: "if the first parity group for an
        object is located on cluster h, then the j-th parity group for that
        object is located on cluster h + j mod Nc").
        """
        start = self._start_for(obj, start_cluster)
        data_disk, parity_disk = self._disk_columns(obj, start)
        data_slot, parity_slot = allocation_slots(
            obj.num_tracks, self.data_disks_per_group)
        disks = np.empty(len(data_slot) + len(parity_slot), dtype=np.int64)
        disks[data_slot] = data_disk
        disks[parity_slot] = parity_disk
        positions = self._claim(disks)
        self._placements[obj.name] = Placement(
            obj, start, _frozen(data_disk), _frozen(positions[data_slot]),
            _frozen(parity_disk), _frozen(positions[parity_slot]))
        self._record_delta()

    def place_catalog(self, catalog: Catalog,
                      start_cluster: Optional[int] = None) -> None:
        """Place every object of a catalog.

        ``start_cluster`` forces every object's first parity group onto one
        cluster (useful for reproducing the paper's worked failure
        scenarios); by default objects round-robin over clusters.
        """
        for obj in catalog:
            self.place(obj, start_cluster=start_cluster)

    # Allocation helper: only reachable from place(), which owns the bump.
    def _claim(self, disks: np.ndarray) -> np.ndarray:  # repro: allow(epoch-cache)
        """Slot positions for blocks bound for ``disks``, in that order.

        The k-th block on a disk takes the k-th-last free slot (the
        order one pop per block gives), then the high-water mark.
        """
        order = np.argsort(disks, kind="stable")
        counts = np.bincount(disks, minlength=self.num_disks)
        first = np.cumsum(counts) - counts
        rank = np.empty(len(disks), dtype=np.int64)
        rank[order] = np.arange(len(disks)) - first[disks[order]]
        base = np.zeros(self.num_disks, dtype=np.int64)
        reused: list[tuple[int, list[int]]] = []
        for disk_id in np.flatnonzero(counts).tolist():
            count = int(counts[disk_id])
            free = self._free_positions[disk_id]
            base[disk_id] = self._next_position[disk_id] - len(free)
            take = min(count, len(free))
            if take:
                reused.append((disk_id, free[len(free) - take:][::-1]))
                del free[len(free) - take:]
            self._next_position[disk_id] += count - take
        positions = base[disks] + rank
        for disk_id, slots in reused:
            start = int(first[disk_id])
            positions[order[start:start + len(slots)]] = slots
        return positions

    def remove(self, name: str) -> list[DiskAddress]:
        """Un-place an object, freeing its slots for reuse.

        Returns the freed physical addresses — data tracks, then parity
        blocks — so the caller can discard the payloads from the drives
        (Section 1: "one or more disk-resident objects must be purged to
        make space").
        """
        placement = self.placement(name)
        disks = np.concatenate((placement.data_disk,
                                placement.parity_disk)).tolist()
        positions = np.concatenate((placement.data_pos,
                                    placement.parity_pos)).tolist()
        for disk_id, position in zip(disks, positions):
            self._free_positions[disk_id].append(position)
        del self._placements[name]
        self._record_delta()
        return list(map(DiskAddress, disks, positions))

    def occupied_positions(self, disk_id: int) -> int:
        """Slots currently holding blocks on a disk (high-water - freed)."""
        return self._next_position[disk_id] - \
            len(self._free_positions[disk_id])

    def placement_demand(self, obj: MediaObject,
                         start_cluster: Optional[int] = None,
                         ) -> dict[int, int]:
        """Blocks per disk that placing ``obj`` would allocate.

        Lets callers check fit against drive capacities *before* placing
        (placement itself is unconditional — the layout does not know the
        drives' sizes).
        """
        start = self._start_for(obj, start_cluster)
        counts = np.bincount(np.concatenate(self._disk_columns(obj, start)),
                             minlength=self.num_disks)
        disks = np.flatnonzero(counts)
        return dict(zip(disks.tolist(), counts[disks].tolist()))

    # -- lookups ----------------------------------------------------------

    def placement(self, name: str) -> Placement:
        """The placement record of one placed object."""
        try:
            return self._placements[name]
        except KeyError:
            raise LayoutError(f"object {name!r} is not placed") from None

    def object(self, name: str) -> MediaObject:
        """Look up a placed object."""
        return self.placement(name).obj

    def has_object(self, name: str) -> bool:
        """True if an object of that name is currently placed (O(1))."""
        return name in self._placements

    @property
    def object_names(self) -> frozenset[str]:
        """Names of every placed object, cached until placement changes.

        Admission consults this on every request; rebuilding a set from
        :attr:`objects` per admission is O(catalog) and shows up at scale.
        """
        if self._names_cache is None:
            self._names_cache = frozenset(self._placements)
        return self._names_cache

    def start_cluster(self, name: str) -> int:
        """Cluster of object ``name``'s first parity group."""
        return self.placement(name).start

    def group_count(self, obj: MediaObject) -> int:
        """Number of parity groups the object occupies."""
        stripe = self.data_disks_per_group
        return (obj.num_tracks + stripe - 1) // stripe

    def group_of(self, name: str, track: int) -> tuple[int, int]:
        """``(group_index, offset_within_group)`` of one data track."""
        obj = self.object(name)
        if not 0 <= track < obj.num_tracks:
            raise LayoutError(
                f"track {track} out of range for {name!r} "
                f"({obj.num_tracks} tracks)"
            )
        stripe = self.data_disks_per_group
        return track // stripe, track % stripe

    def _group_bounds(self, name: str, group: int,
                      ) -> tuple[Placement, int, int]:
        """``(placement, first, stop)``: the group's data-track range."""
        placement = self.placement(name)
        stripe = self.data_disks_per_group
        first = group * stripe
        num_tracks = len(placement.data_disk)
        if not 0 <= first < num_tracks:
            raise LayoutError(f"group {group} out of range for {name!r}")
        return placement, first, min(first + stripe, num_tracks)

    def group_tracks(self, name: str, group: int) -> list[int]:
        """The data-track indices of one parity group, ascending."""
        _placement, first, stop = self._group_bounds(name, group)
        return list(range(first, stop))

    def data_address(self, name: str, track: int) -> DiskAddress:
        """Physical address of one data track."""
        self.group_of(name, track)  # validates
        placement = self._placements[name]
        return DiskAddress(placement.data_disk.item(track),
                           placement.data_pos.item(track))

    def parity_address(self, name: str, group: int) -> DiskAddress:
        """Physical address of one parity block."""
        placement = self._placements.get(name)
        if placement is None or not 0 <= group < len(placement.parity_disk):
            raise LayoutError(f"no parity group {group} for object {name!r}")
        return DiskAddress(placement.parity_disk.item(group),
                           placement.parity_pos.item(group))

    def group_span(self, name: str, group: int) -> GroupSpan:
        """The full physical footprint of one parity group."""
        placement, first, stop = self._group_bounds(name, group)
        return GroupSpan(
            object_name=name,
            group_index=group,
            data=tuple(map(DiskAddress,
                           placement.data_disk[first:stop].tolist(),
                           placement.data_pos[first:stop].tolist())),
            parity=DiskAddress(placement.parity_disk.item(group),
                               placement.parity_pos.item(group)),
        )

    def group_geometry(self, name: str, group: int,
                       ) -> tuple[tuple[tuple[int, int], ...],
                                  tuple[int, int]]:
        """``((disk_id, position) per data track, (disk_id, position))``.

        The plain-tuple counterpart of :meth:`group_span` for the
        schedulers' per-cycle plan building: no dataclass construction.
        """
        # The plan-cache miss path: _group_bounds inlined.
        placement = self.placement(name)
        stripe = self.data_disks_per_group
        first = group * stripe
        if not 0 <= first < len(placement.data_disk):
            raise LayoutError(f"group {group} out of range for {name!r}")
        stop = first + stripe
        return (tuple(zip(placement.data_disk[first:stop].tolist(),
                          placement.data_pos[first:stop].tolist())),
                (placement.parity_disk.item(group),
                 placement.parity_pos.item(group)))

    def group_cluster(self, name: str, group: int) -> int:
        """Cluster holding the group's first data block (for declustered
        layouts, that disk's rotation class)."""
        placement, first, _stop = self._group_bounds(name, group)
        return self.cluster_of(placement.data_disk.item(first))

    def allocation_order(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """``(disks, positions)`` of every block of one object, in
        allocation order (see :func:`allocation_slots`)."""
        placement = self.placement(name)
        data_slot, parity_slot = allocation_slots(
            len(placement.data_disk), self.data_disks_per_group)
        size = len(data_slot) + len(parity_slot)
        disks = np.empty(size, dtype=np.int64)
        positions = np.empty(size, dtype=np.int64)
        disks[data_slot] = placement.data_disk
        disks[parity_slot] = placement.parity_disk
        positions[data_slot] = placement.data_pos
        positions[parity_slot] = placement.parity_pos
        return disks, positions

    def blocks_on_disk(self, disk_id: int) -> list[StoredBlock]:
        """Everything stored on one disk, in allocation order."""
        if not 0 <= disk_id < self.num_disks:
            raise LayoutError(f"no such disk: {disk_id}")
        blocks: list[StoredBlock] = []
        for name, placement in self._placements.items():
            tracks = np.flatnonzero(placement.data_disk == disk_id)
            groups = np.flatnonzero(placement.parity_disk == disk_id)
            if not len(tracks) and not len(groups):
                continue
            stored = ([StoredBlock(name, BlockKind.DATA, track)
                       for track in tracks.tolist()]
                      + [StoredBlock(name, BlockKind.PARITY, group)
                         for group in groups.tolist()])
            data_slot, parity_slot = allocation_slots(
                len(placement.data_disk), self.data_disks_per_group)
            slots = np.concatenate((data_slot[tracks], parity_slot[groups]))
            blocks.extend(stored[i] for i in np.argsort(slots).tolist())
        return blocks

    def used_positions(self, disk_id: int) -> int:
        """How many track slots the layout has allocated on a disk."""
        return self._next_position[disk_id]

    # -- failure analysis --------------------------------------------------

    def groups_sharing_disk_pair(self, disk_a: int, disk_b: int) -> bool:
        """True if some parity group contains blocks on both disks."""
        if disk_a == disk_b:
            return True
        stripe = self.data_disks_per_group
        for placement in self._placements.values():
            touched = []
            for disk_id in (disk_a, disk_b):
                hit = placement.parity_disk == disk_id
                hit[np.flatnonzero(placement.data_disk == disk_id)
                    // stripe] = True
                touched.append(hit)
            if bool((touched[0] & touched[1]).any()):
                return True
        return False

    def is_catastrophic(self, failed_ids: Iterable[int]) -> bool:
        """True if the failure set loses data (>= 2 failures in one group).

        Subclasses may override with a geometric shortcut; this generic
        implementation checks actual group membership.
        """
        failed = sorted(set(failed_ids))
        for i, disk_a in enumerate(failed):
            for disk_b in failed[i + 1:]:
                if self.groups_sharing_disk_pair(disk_a, disk_b):
                    return True
        return False

    # -- materialisation ----------------------------------------------------

    def materialise(self, array: DiskArray) -> None:
        """Write every placed object's payloads and parity onto the array.

        Tracks shorter groups (an object's tail) are padded with zero blocks
        for the parity computation, matching how a real loader would zero
        the unused stripe units.

        On a metadata-only array (``store_payloads=False``) no bytes are
        generated at all: each address is merely marked occupied — O(1) per
        track — and the real payloads stay derivable on demand through
        :meth:`resolve_payload`.
        """
        if len(array) != self.num_disks:
            raise ConfigurationError(
                f"layout expects {self.num_disks} disks, array has {len(array)}"
            )
        for name in self._placements:
            self.materialise_object(array, name)

    def materialise_object(self, array: DiskArray, name: str) -> None:
        """Write one placed object's payloads and parity onto the array
        (the per-object loader the tertiary staging path uses)."""
        placement = self.placement(name)
        data = list(zip(placement.data_disk.tolist(),
                        placement.data_pos.tolist()))
        parity = zip(placement.parity_disk.tolist(),
                     placement.parity_pos.tolist())
        if not array.store_payloads:
            # Metadata-only: mark occupancy, derive payloads lazily.
            for disk_id, position in data:
                array[disk_id].write_meta(position)
            for disk_id, position in parity:
                array[disk_id].write_meta(position)
            return
        obj = placement.obj
        track_bytes = mb_to_bytes(array.spec.track_size_mb)
        # Generate and write every data track, collecting the group rows;
        # then encode every group's parity as one matrix XOR (short tail
        # rows are implicitly zero-padded — the XOR identity).
        stripe = self.data_disks_per_group
        rows: list[list[bytes]] = []
        for track, (disk_id, position) in enumerate(data):
            payload = obj.track_payload(track, track_bytes)
            array[disk_id].write(position, payload)
            if track % stripe == 0:
                rows.append([])
            rows[-1].append(payload)
        for (disk_id, position), block in zip(parity, xor_matrix(rows)):
            array[disk_id].write(position, block)

    # -- lazy payload derivation (metadata-only mode) -----------------------

    def block_at(self, disk_id: int, position: int) -> StoredBlock:
        """The logical block stored at one physical address.

        Backed by a reverse index built lazily from the placement records
        and flushed on placement changes; raises :class:`LayoutError` for
        unoccupied addresses.
        """
        if self._block_index is None:
            index: dict[tuple[int, int], StoredBlock] = {}
            for name, placement in self._placements.items():
                for kind, disks, positions in (
                        (BlockKind.DATA, placement.data_disk,
                         placement.data_pos),
                        (BlockKind.PARITY, placement.parity_disk,
                         placement.parity_pos)):
                    for block, address in enumerate(zip(disks.tolist(),
                                                        positions.tolist())):
                        index[address] = StoredBlock(name, kind, block)
            self._block_index = index
        try:
            return self._block_index[(disk_id, position)]
        except KeyError:
            raise LayoutError(
                f"disk {disk_id} position {position} holds no placed block"
            ) from None

    def resolve_payload(self, disk_id: int, position: int,
                        track_bytes: int) -> bytes:
        """Derive the bytes one physical address *should* hold.

        This is the deterministic seed function behind metadata-only mode:
        data tracks expand from the object's seeded generator, parity
        blocks are the XOR of their group's data tracks.  Works in either
        mode (in payload mode it reproduces what was written).
        """
        block = self.block_at(disk_id, position)
        obj = self.object(block.object_name)
        if block.kind is BlockKind.DATA:
            return obj.track_payload(block.index, track_bytes)
        tracks = self.group_tracks(block.object_name, block.index)
        return xor_blocks([obj.track_payload(t, track_bytes)
                           for t in tracks])

    def spot_check(self, array: DiskArray, name: str, group: int) -> bool:
        """Verify one parity group's stored state on demand.

        In payload mode, compares the stored data and parity bytes against
        the deterministic generator.  In metadata-only mode, checks that
        every group address is occupied and that the lazily derived
        payloads at those addresses satisfy the parity relation — the
        on-demand verification hook the fast path keeps available.
        """
        span = self.group_span(name, group)
        obj = self.object(name)
        track_bytes = mb_to_bytes(array.spec.track_size_mb)
        tracks = self.group_tracks(name, group)
        expected = [obj.track_payload(t, track_bytes) for t in tracks]
        expected_parity = xor_blocks(expected)
        if array.store_payloads:
            for address, payload in zip(span.data, expected):
                if array[address.disk_id].peek(address.position) != payload:
                    return False
            return array[span.parity.disk_id].peek(
                span.parity.position) == expected_parity
        # Metadata mode: every address must be occupied (peek raises on
        # holes) and the derived payloads must satisfy the parity relation.
        for address in span.data:
            array[address.disk_id].peek(address.position)
        array[span.parity.disk_id].peek(span.parity.position)
        derived = [self.resolve_payload(a.disk_id, a.position, track_bytes)
                   for a in span.data]
        derived_parity = self.resolve_payload(
            span.parity.disk_id, span.parity.position, track_bytes)
        return xor_blocks(derived) == derived_parity \
            and derived == expected and derived_parity == expected_parity

    # -- misc ---------------------------------------------------------------

    def describe(self) -> str:
        """One-line human description of the layout."""
        return (
            f"{type(self).__name__}(D={self.num_disks}, "
            f"C={self.parity_group_size}, clusters={self.num_clusters}, "
            f"objects={len(self._placements)})"
        )
