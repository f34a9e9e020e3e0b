"""The abstract data-layout interface.

A layout answers, for every object in a catalog:

* where each data track lives (``data_address``);
* which parity group a track belongs to (``group_of``);
* the full physical footprint of a group (``group_span``);
* what a given disk holds (``blocks_on_disk``) — needed to work out which
  streams a disk failure touches;
* whether a set of simultaneous failures is *catastrophic*, i.e. some
  parity group has lost two or more members (Section 1).

Layouts also know how to *materialise* themselves onto a
:class:`~repro.disk.drive.DiskArray`: writing deterministic track payloads
and their XOR parity so reconstruction can be verified byte-for-byte.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.disk.drive import DiskArray
from repro.errors import ConfigurationError, LayoutError
from repro.layout.address import BlockKind, DiskAddress, GroupSpan, StoredBlock
from repro.media.catalog import Catalog
from repro.media.objects import MediaObject
from repro.parity.xor import xor_blocks, xor_matrix
from repro.units import mb_to_bytes

#: How many placement deltas a layout retains.  Once the log outgrows
#: this, the oldest entries are dropped and the *floor* rises — callers
#: asking for history below the floor get ``None`` and must fall back to
#: wholesale invalidation.
DELTA_LOG_LIMIT = 256


@dataclass(frozen=True)
class PlacementDelta:
    """One placement change: which epoch it created, and what moved.

    ``kind`` is ``"place"`` (addresses were appended — every previously
    cached lookup stays valid) or ``"remove"`` (the named object's
    addresses were freed — only caches mentioning that object die).
    """

    epoch: int
    kind: str
    name: str


class DataLayout(abc.ABC):
    """Common machinery for parity-group layouts.

    Concrete subclasses decide cluster geometry and parity placement by
    implementing :meth:`_data_disk_for` and :meth:`_parity_disk_for`;
    everything else (per-disk slot allocation, lookup tables, catastrophe
    detection, materialisation) is shared.
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
        self._objects: dict[str, MediaObject] = {}
        self._start_cluster: dict[str, int] = {}
        self._data_addr: dict[tuple[str, int], DiskAddress] = {}
        self._parity_addr: dict[tuple[str, int], DiskAddress] = {}
        self._disk_contents: dict[int, list[StoredBlock]] = {
            disk_id: [] for disk_id in range(num_disks)
        }
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
        #: Bounded log of recent placement changes so schedulers can
        #: bridge an epoch gap with per-object evictions instead of
        #: dropping every cached plan (see :meth:`deltas_since`).
        self._delta_log: list[PlacementDelta] = []
        self._delta_floor = 0
        # Memoized hot-path lookups; _record_delta evicts what a
        # placement change moves.
        self._span_cache: dict[tuple[str, int], GroupSpan] = {}
        self._tracks_cache: dict[tuple[str, int], list[int]] = {}
        self._cluster_cache: dict[tuple[str, int], int] = {}
        self._geometry_cache: dict[
            tuple[str, int],
            tuple[tuple[tuple[int, int], ...], tuple[int, int]]] = {}
        self._names_cache: Optional[frozenset[str]] = None
        self._block_index: Optional[dict[tuple[int, int], StoredBlock]] = None

    # -- cache management ---------------------------------------------------

    @property
    def epoch(self) -> int:
        """Monotonic counter of placement changes (place/remove calls)."""
        return self._epoch

    def _record_delta(self, kind: str, name: str) -> None:
        """Bump the epoch for one placement change, evicting surgically.

        ``place`` only appends addresses, so every memoized per-object
        lookup survives; ``remove`` kills just the removed object's
        entries.  The object-set caches (:attr:`object_names`, the block
        reverse index) are rebuilt lazily either way.
        """
        self._epoch += 1
        self._names_cache = None
        self._block_index = None
        if kind == "remove":
            for cache in (self._span_cache, self._tracks_cache,
                          self._cluster_cache, self._geometry_cache):
                for key in [k for k in cache if k[0] == name]:
                    del cache[key]
        self._delta_log.append(PlacementDelta(self._epoch, kind, name))
        if len(self._delta_log) > DELTA_LOG_LIMIT:
            dropped = len(self._delta_log) - DELTA_LOG_LIMIT
            del self._delta_log[:dropped]
            self._delta_floor = self._delta_log[0].epoch - 1

    def deltas_since(self, epoch: int) -> Optional[tuple[PlacementDelta, ...]]:
        """Placement changes after ``epoch``, oldest first.

        Returns ``None`` when ``epoch`` predates the retained window (the
        log is bounded by :data:`DELTA_LOG_LIMIT`) — callers must then
        invalidate wholesale.  Returns ``()`` when nothing changed.
        """
        if epoch < self._delta_floor:
            return None
        return tuple(d for d in self._delta_log if d.epoch > epoch)

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
    def _data_disk_for(self, obj: MediaObject, group: int, offset: int) -> int:
        """Disk holding data block ``offset`` of parity group ``group``."""

    @abc.abstractmethod
    def _parity_disk_for(self, obj: MediaObject, group: int) -> int:
        """Disk holding the parity block of parity group ``group``."""

    # -- placement --------------------------------------------------------

    @property
    def objects(self) -> list[MediaObject]:
        """Objects placed so far, in placement order."""
        return list(self._objects.values())

    def place(self, obj: MediaObject, start_cluster: Optional[int] = None) -> None:
        """Assign disk addresses to every track and parity block of ``obj``.

        Parity groups are allocated round-robin over clusters starting at
        ``start_cluster`` (Section 2: "if the first parity group for an
        object is located on cluster h, then the j-th parity group for that
        object is located on cluster h + j mod Nc").
        """
        if obj.name in self._objects:
            raise LayoutError(f"object {obj.name!r} already placed")
        if start_cluster is None:
            start_cluster = len(self._objects) % self.num_clusters
        if not 0 <= start_cluster < self.num_clusters:
            raise LayoutError(
                f"start cluster {start_cluster} out of range "
                f"(0..{self.num_clusters - 1})"
            )
        self._objects[obj.name] = obj
        self._start_cluster[obj.name] = start_cluster
        stripe = self.data_disks_per_group
        for group in range(self.group_count(obj)):
            for offset in range(stripe):
                track = group * stripe + offset
                if track >= obj.num_tracks:
                    break
                disk_id = self._data_disk_for(obj, group, offset)
                address = self._allocate(disk_id)
                self._data_addr[(obj.name, track)] = address
                self._disk_contents[disk_id].append(
                    StoredBlock(obj.name, BlockKind.DATA, track)
                )
            parity_disk = self._parity_disk_for(obj, group)
            address = self._allocate(parity_disk)
            self._parity_addr[(obj.name, group)] = address
            self._disk_contents[parity_disk].append(
                StoredBlock(obj.name, BlockKind.PARITY, group)
            )
        self._record_delta("place", obj.name)

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
    def _allocate(self, disk_id: int) -> DiskAddress:  # repro: allow(epoch-cache)
        free = self._free_positions[disk_id]
        if free:
            return DiskAddress(disk_id, free.pop())
        position = self._next_position[disk_id]
        self._next_position[disk_id] += 1
        return DiskAddress(disk_id, position)

    def remove(self, name: str) -> list[DiskAddress]:
        """Un-place an object, freeing its slots for reuse.

        Returns the freed physical addresses so the caller can discard the
        payloads from the drives (Section 1: "one or more disk-resident
        objects must be purged to make space").
        """
        obj = self.object(name)
        freed: list[DiskAddress] = []
        for track in range(obj.num_tracks):
            freed.append(self._data_addr.pop((name, track)))
        for group in range(self.group_count(obj)):
            freed.append(self._parity_addr.pop((name, group)))
        for address in freed:
            self._free_positions[address.disk_id].append(address.position)
        for disk_id in set(a.disk_id for a in freed):
            self._disk_contents[disk_id] = [
                block for block in self._disk_contents[disk_id]
                if block.object_name != name
            ]
        del self._objects[name]
        del self._start_cluster[name]
        self._record_delta("remove", name)
        return freed

    def occupied_positions(self, disk_id: int) -> int:
        """Slots currently holding blocks on a disk (high-water - freed)."""
        return self._next_position[disk_id] - \
            len(self._free_positions[disk_id])

    # Transient probe: simulates place() then restores all state, so the
    # epoch is unchanged on exit by construction.
    def placement_demand(self, obj: MediaObject,  # repro: allow(epoch-cache)
                         start_cluster: Optional[int] = None,
                         ) -> dict[int, int]:
        """Blocks per disk that placing ``obj`` would allocate.

        Lets callers check fit against drive capacities *before* placing
        (placement itself is unconditional — the layout does not know the
        drives' sizes).
        """
        if obj.name in self._objects:
            raise LayoutError(f"object {obj.name!r} already placed")
        if start_cluster is None:
            start_cluster = len(self._objects) % self.num_clusters
        demand: dict[int, int] = {}
        self._start_cluster[obj.name] = start_cluster
        try:
            stripe = self.data_disks_per_group
            for group in range(self.group_count(obj)):
                for offset in range(stripe):
                    if group * stripe + offset >= obj.num_tracks:
                        break
                    disk_id = self._data_disk_for(obj, group, offset)
                    demand[disk_id] = demand.get(disk_id, 0) + 1
                parity_disk = self._parity_disk_for(obj, group)
                demand[parity_disk] = demand.get(parity_disk, 0) + 1
        finally:
            del self._start_cluster[obj.name]
        return demand

    # -- lookups ----------------------------------------------------------

    def object(self, name: str) -> MediaObject:
        """Look up a placed object."""
        try:
            return self._objects[name]
        except KeyError:
            raise LayoutError(f"object {name!r} is not placed") from None

    def has_object(self, name: str) -> bool:
        """True if an object of that name is currently placed (O(1))."""
        return name in self._objects

    @property
    def object_names(self) -> frozenset[str]:
        """Names of every placed object, cached until placement changes.

        Admission consults this on every request; rebuilding a set from
        :attr:`objects` per admission is O(catalog) and shows up at scale.
        """
        if self._names_cache is None:
            self._names_cache = frozenset(self._objects)
        return self._names_cache

    def start_cluster(self, name: str) -> int:
        """Cluster of object ``name``'s first parity group."""
        self.object(name)
        return self._start_cluster[name]

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

    # Geometry memo: keyed by (name, group), placement is fixed at
    # construction, so the write is idempotent and value-deterministic —
    # safe for ff eligibility probes to trigger.  # repro: allow(R8)
    def group_tracks(self, name: str, group: int) -> list[int]:
        """The data-track indices of one parity group, ascending.

        Returns the memoized list itself — treat it as immutable.
        """
        key = (name, group)
        cached = self._tracks_cache.get(key)
        if cached is not None:
            return cached
        obj = self.object(name)
        stripe = self.data_disks_per_group
        first = group * stripe
        if not 0 <= first < obj.num_tracks:
            raise LayoutError(f"group {group} out of range for {name!r}")
        tracks = list(range(first, min(first + stripe, obj.num_tracks)))
        self._tracks_cache[key] = tracks
        return tracks

    def data_address(self, name: str, track: int) -> DiskAddress:
        """Physical address of one data track."""
        self.group_of(name, track)  # validates
        return self._data_addr[(name, track)]

    def parity_address(self, name: str, group: int) -> DiskAddress:
        """Physical address of one parity block."""
        key = (name, group)
        if key not in self._parity_addr:
            raise LayoutError(f"no parity group {group} for object {name!r}")
        return self._parity_addr[key]

    # Geometry memo: keyed by (name, group), placement is fixed at
    # construction, so the write is idempotent and value-deterministic —
    # safe for ff eligibility probes to trigger.  # repro: allow(R8)
    def group_span(self, name: str, group: int) -> GroupSpan:
        """The full physical footprint of one parity group (memoized)."""
        key = (name, group)
        cached = self._span_cache.get(key)
        if cached is not None:
            return cached
        tracks = self.group_tracks(name, group)
        span = GroupSpan(
            object_name=name,
            group_index=group,
            data=tuple(self._data_addr[(name, t)] for t in tracks),
            parity=self.parity_address(name, group),
        )
        self._span_cache[key] = span
        return span

    def group_geometry(self, name: str, group: int,
                       ) -> tuple[tuple[tuple[int, int], ...],
                                  tuple[int, int]]:
        """``((disk_id, position) per data track, (disk_id, position))``.

        The plain-tuple counterpart of :meth:`group_span` for the
        schedulers' per-cycle plan building: no dataclass construction,
        memoized until placement changes.  Treat the result as immutable.
        """
        key = (name, group)
        cached = self._geometry_cache.get(key)
        if cached is None:
            num_tracks = self.object(name).num_tracks
            stripe = self.data_disks_per_group
            first = group * stripe
            if not 0 <= first < num_tracks:
                raise LayoutError(f"group {group} out of range for {name!r}")
            data_addr = self._data_addr
            members = []
            for track in range(first, min(first + stripe, num_tracks)):
                addr = data_addr[(name, track)]
                members.append((addr.disk_id, addr.position))
            parity = self.parity_address(name, group)
            cached = (tuple(members), (parity.disk_id, parity.position))
            self._geometry_cache[key] = cached
        return cached

    # Geometry memo: keyed by (name, group), placement is fixed at
    # construction, so the write is idempotent and value-deterministic —
    # safe for ff eligibility probes to trigger.  # repro: allow(R8)
    def group_cluster(self, name: str, group: int) -> int:
        """Cluster holding the *data* blocks of one parity group."""
        key = (name, group)
        cached = self._cluster_cache.get(key)
        if cached is not None:
            return cached
        span = self.group_span(name, group)
        cluster = self.cluster_of(span.data[0].disk_id)
        self._cluster_cache[key] = cluster
        return cluster

    def blocks_on_disk(self, disk_id: int) -> list[StoredBlock]:
        """Everything stored on one disk, in allocation order."""
        if disk_id not in self._disk_contents:
            raise LayoutError(f"no such disk: {disk_id}")
        return list(self._disk_contents[disk_id])

    def used_positions(self, disk_id: int) -> int:
        """How many track slots the layout has allocated on a disk."""
        return self._next_position[disk_id]

    # -- failure analysis --------------------------------------------------

    def groups_sharing_disk_pair(self, disk_a: int, disk_b: int) -> bool:
        """True if some parity group contains blocks on both disks."""
        if disk_a == disk_b:
            return True
        disks_b: set[tuple[str, int]] = set()
        for block in self._disk_contents[disk_b]:
            group = (block.index if block.kind is BlockKind.PARITY
                     else block.index // self.data_disks_per_group)
            disks_b.add((block.object_name, group))
        for block in self._disk_contents[disk_a]:
            group = (block.index if block.kind is BlockKind.PARITY
                     else block.index // self.data_disks_per_group)
            if (block.object_name, group) in disks_b:
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
        for obj in self._objects.values():
            self.materialise_object(array, obj.name)

    def materialise_object(self, array: DiskArray, name: str) -> None:
        """Write one placed object's payloads and parity onto the array
        (the per-object loader the tertiary staging path uses)."""
        obj = self.object(name)
        if not array.store_payloads:
            # Metadata-only: mark occupancy, derive payloads lazily.
            for track in range(obj.num_tracks):
                address = self._data_addr[(name, track)]
                array[address.disk_id].write_meta(address.position)
            for group in range(self.group_count(obj)):
                address = self._parity_addr[(name, group)]
                array[address.disk_id].write_meta(address.position)
            return
        track_bytes = mb_to_bytes(array.spec.track_size_mb)
        # Generate and write every data track, collecting the group rows;
        # then encode every group's parity as one matrix XOR (short tail
        # rows are implicitly zero-padded — the XOR identity).
        rows: list[list[bytes]] = []
        for group in range(self.group_count(obj)):
            payloads: list[bytes] = []
            for track in self.group_tracks(name, group):
                payload = obj.track_payload(track, track_bytes)
                address = self._data_addr[(name, track)]
                array[address.disk_id].write(address.position, payload)
                payloads.append(payload)
            rows.append(payloads)
        for group, parity in enumerate(xor_matrix(rows)):
            address = self._parity_addr[(name, group)]
            array[address.disk_id].write(address.position, parity)

    # -- lazy payload derivation (metadata-only mode) -----------------------

    def block_at(self, disk_id: int, position: int) -> StoredBlock:
        """The logical block stored at one physical address.

        Backed by a reverse index built lazily and flushed on placement
        changes; raises :class:`LayoutError` for unoccupied addresses.
        """
        if self._block_index is None:
            index: dict[tuple[int, int], StoredBlock] = {}
            for (name, track), address in self._data_addr.items():
                index[(address.disk_id, address.position)] = StoredBlock(
                    name, BlockKind.DATA, track)
            for (name, group), address in self._parity_addr.items():
                index[(address.disk_id, address.position)] = StoredBlock(
                    name, BlockKind.PARITY, group)
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
            f"objects={len(self._objects)})"
        )
