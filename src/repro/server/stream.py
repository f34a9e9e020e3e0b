"""Stream state: one in-progress delivery of one object.

The paper: "We will use the term stream to refer to the delivery of a given
object at a given time" (Section 2).  A stream owns:

* a *read pointer* (`next_read_track`) — the first track not yet fetched;
* a *delivery pointer* (`next_delivery_track`) — the first track not yet
  sent to the display station;
* a buffer of fetched-but-undelivered track payloads, plus any parity
  blocks / XOR accumulators held for on-the-fly reconstruction.

Delivery is relentless: once started, the pointer advances every cycle
whether or not the data is present (that is what makes a missing track a
*hiccup* rather than a stall — the viewer's clock does not wait).

:class:`StreamRegistry` is the scheduler's record of every stream ever
admitted.  A stream the epoch engine admitted and saw finish is kept as
one row of its columnar archive, and becomes a :class:`Stream` only when
something reads it.
"""

from __future__ import annotations

import enum
import operator
from collections.abc import ItemsView, Iterator, Mapping, Sequence, ValuesView
from typing import Optional, cast

import numpy as np

from repro.media.objects import MediaObject


class StreamStatus(enum.Enum):
    """Lifecycle of a stream."""

    ADMITTED = "admitted"      # accepted, delivery not begun
    ACTIVE = "active"          # delivering
    COMPLETED = "completed"    # all tracks delivered (or skipped by hiccup)
    TERMINATED = "terminated"  # dropped by degradation of service
    STOPPED = "stopped"        # the viewer left before the end


class Stream:
    """One active delivery with its buffers and pointers."""

    __slots__ = ("stream_id", "object", "num_tracks", "admitted_cycle",
                 "phase", "rate", "status", "is_active", "next_read_track",
                 "next_delivery_track", "delivery_start_cycle", "buffer",
                 "parity_buffer", "accumulators", "lost_tracks",
                 "delivered_tracks", "hiccup_count", "reconstructed_tracks")

    def __init__(self, stream_id: int, obj: MediaObject,
                 admitted_cycle: int = 0, phase: int = 0, rate: int = 1) -> None:
        if rate < 1:
            raise ValueError(f"stream rate must be >= 1, got {rate}")
        self.stream_id = stream_id
        self.object = obj
        #: Denormalised from ``object`` for the cycle engine's hot loops.
        self.num_tracks = obj.num_tracks
        self.admitted_cycle = admitted_cycle
        #: Read phase for staggered schemes (0 .. C-2).
        self.phase = phase
        #: Bandwidth as a multiple of the server's base object rate
        #: (Section 1's mixed MPEG-1/MPEG-2 populations: an MPEG-2 stream
        #: on an MPEG-1-cycled server has rate 3).
        self.rate = rate
        self.status = StreamStatus.ADMITTED
        #: Kept in lockstep with ``status``: a plain attribute because the
        #: cycle engine consults it once per planned read.
        self.is_active = True
        self.next_read_track = 0
        self.next_delivery_track = 0
        #: Cycle at which delivery begins (set when the first read lands).
        self.delivery_start_cycle: Optional[int] = None
        #: Fetched, undelivered data tracks: track index -> payload.
        self.buffer: dict[int, bytes] = {}
        #: Held parity payloads: group index -> payload.
        self.parity_buffer: dict[int, bytes] = {}
        #: Running-XOR accumulators (lazy NC transition): group -> payload.
        self.accumulators: dict[int, bytes] = {}
        #: Tracks known to be unrecoverable (will hiccup at delivery time).
        self.lost_tracks: set[int] = set()
        # Lifetime counters.
        self.delivered_tracks = 0
        self.hiccup_count = 0
        self.reconstructed_tracks = 0

    def __repr__(self) -> str:
        return (f"Stream(id={self.stream_id}, object={self.object.name!r}, "
                f"status={self.status.value}, "
                f"read={self.next_read_track}/{self.object.num_tracks}, "
                f"deliver={self.next_delivery_track})")

    # -- progress queries ---------------------------------------------------

    @property
    def reads_remaining(self) -> bool:
        """True while there are tracks left to fetch."""
        return self.is_active and self.next_read_track < self.num_tracks

    @property
    def deliveries_remaining(self) -> bool:
        """True while there are tracks left to send."""
        return self.is_active and \
            self.next_delivery_track < self.num_tracks

    @property
    def buffered_track_count(self) -> int:
        """Track-sized buffers currently held (data + parity + accumulators)."""
        return len(self.buffer) + len(self.parity_buffer) + \
            len(self.accumulators)

    # -- buffer operations ----------------------------------------------------

    def store_track(self, track: int, payload: bytes) -> None:
        """A fetched track becomes available for delivery."""
        self.buffer[track] = payload

    def store_parity(self, group: int, payload: bytes) -> None:
        """A fetched parity block is held for reconstruction."""
        self.parity_buffer[group] = payload

    def take_track(self, track: int) -> Optional[bytes]:
        """Remove and return a buffered track (None if absent)."""
        return self.buffer.pop(track, None)

    def drop_parity(self, group: int) -> None:
        """Release a parity buffer once its group is fully delivered."""
        self.parity_buffer.pop(group, None)
        self.accumulators.pop(group, None)

    def mark_lost(self, track: int) -> None:
        """Record that a track can never be delivered (future hiccup)."""
        if track >= self.next_delivery_track:
            self.lost_tracks.add(track)

    # -- lifecycle -------------------------------------------------------------

    def activate(self) -> None:
        """First delivery happened; the stream is live."""
        if self.status is StreamStatus.ADMITTED:
            self.status = StreamStatus.ACTIVE

    def complete(self) -> None:
        """All tracks delivered (or accounted as hiccups)."""
        self.status = StreamStatus.COMPLETED
        self.is_active = False
        self.buffer.clear()
        self.parity_buffer.clear()
        self.accumulators.clear()

    def terminate(self) -> None:
        """Dropped by degradation of service."""
        self.status = StreamStatus.TERMINATED
        self.is_active = False
        self.buffer.clear()
        self.parity_buffer.clear()
        self.accumulators.clear()

    def stop(self) -> None:
        """The viewer stopped watching; resources are released at once."""
        self.status = StreamStatus.STOPPED
        self.is_active = False
        self.buffer.clear()
        self.parity_buffer.clear()
        self.accumulators.clear()


#: The archive's columns, each indexed by stream id and named for the
#: :class:`Stream` attribute it restores (``delivery_start_cycle`` -1:
#: delivery never started).
ARCHIVE_COLUMNS = ("object", "admitted_cycle", "phase", "rate",
                   "next_read_track", "next_delivery_track",
                   "delivery_start_cycle", "delivered_tracks",
                   "reconstructed_tracks")

#: Archived rows restored per step of a whole-registry read, which bounds
#: the lists a step builds.
_RESTORE_CHUNK = 4096

#: A registry slot whose id was never admitted (ids below the first one).
_ABSENT = object()


class StreamRegistry(Mapping[int, Stream]):
    """Every stream ever admitted, by id, in id order; read-only.

    A stream is held as a :class:`Stream`, or as an archived row: a
    stream the epoch engine admitted and saw finish, whose final state
    the engine wrote into id-indexed columns (:meth:`archive`) instead
    of building an object for it.  The first read of an archived row
    builds its ``COMPLETED`` stream, with empty buffers, and the
    registry keeps that object, so ``registry[i] is registry[i]``.
    Only the scheduler registers streams (:meth:`add`, :meth:`reserve`),
    each id past every registered one.
    """

    __slots__ = ("_slots", "_count", "_columns")

    def __init__(self) -> None:
        #: Indexed by stream id: its stream, None while its row is
        #: archived, or ``_ABSENT`` for an id never admitted.
        self._slots: list[object] = []
        self._count = 0
        #: The archive, by :data:`ARCHIVE_COLUMNS` name.
        self._columns: dict[str, np.ndarray] = {}
        self._drop_archive()

    def __repr__(self) -> str:
        return f"StreamRegistry({self._count} streams)"

    def _drop_archive(self) -> None:
        self._columns = {
            name: np.zeros(0, dtype=object if name == "object" else np.int64)
            for name in ARCHIVE_COLUMNS}

    # -- registration ----------------------------------------------------------

    def _open(self, first: int) -> None:
        """Mark the ids below ``first`` that were never admitted."""
        slots = self._slots
        if first < len(slots):
            raise ValueError(f"stream id {first} is already registered")
        slots.extend([_ABSENT] * (first - len(slots)))

    def add(self, streams: Sequence[Stream]) -> None:
        """Register ``streams``: consecutive new ids past every
        registered one, or ids :meth:`reserve` registered, each taking
        its place."""
        if not streams:
            return
        slots = self._slots
        first = streams[0].stream_id
        if first >= len(slots):
            self._open(first)
            slots.extend(streams)
            self._count += len(streams)
            return
        for stream in streams:
            if slots[stream.stream_id] is not None:
                raise ValueError(
                    f"stream id {stream.stream_id} has no reserved place")
            slots[stream.stream_id] = stream

    def reserve(self, ids: range) -> None:
        """Register ``ids`` with no stream yet: before a read, each must
        have its row archived or get its stream through :meth:`add`."""
        if ids:
            self._open(ids.start)
            self._slots.extend([None] * len(ids))
            self._count += len(ids)

    def archive(self, ids: np.ndarray, columns: dict[str, np.ndarray],
                ) -> None:
        """Write the final state of finished streams ``ids``, one value
        per id in each of the :data:`ARCHIVE_COLUMNS`."""
        top = int(ids.max())
        store = self._columns
        size = len(store["object"])
        if top >= size:
            size = max(top + 1, 2 * size)
            for name, column in store.items():
                grown = np.zeros(size, dtype=column.dtype)
                grown[:len(column)] = column
                store[name] = grown
        for name in ARCHIVE_COLUMNS:
            store[name][ids] = columns[name]

    # -- the mapping -----------------------------------------------------------

    def __getitem__(self, stream_id: int) -> Stream:
        slots = self._slots
        try:
            stream = slots[stream_id] if stream_id >= 0 else _ABSENT
        except (IndexError, TypeError):
            raise KeyError(stream_id) from None
        if stream is None:
            self._restore([stream_id])
            stream = slots[stream_id]
        if stream is _ABSENT:
            raise KeyError(stream_id)
        return cast(Stream, stream)

    def __contains__(self, stream_id: object) -> bool:
        try:
            index = operator.index(stream_id)  # type: ignore[arg-type]
        except TypeError:
            return False
        return 0 <= index < len(self._slots) \
            and self._slots[index] is not _ABSENT

    def __iter__(self) -> Iterator[int]:
        slots = self._slots
        if self._count == len(slots):
            return iter(range(len(slots)))
        return (stream_id for stream_id, stream in enumerate(slots)
                if stream is not _ABSENT)

    def __len__(self) -> int:
        return self._count

    def values(self) -> ValuesView[Stream]:
        """Every stream, id order; builds every archived row's at once."""
        self._restore_all()
        return _Values(self)

    def items(self) -> ItemsView[int, Stream]:
        """Every ``(id, stream)`` pair, id order; builds every archived
        row's stream at once."""
        self._restore_all()
        return ItemsView(self)

    def _restore_all(self) -> None:
        """Restore every archived row, then drop the archive: no id
        refers to it any more."""
        pending = [stream_id for stream_id, stream in enumerate(self._slots)
                   if stream is None]
        if not pending:
            return
        for lo in range(0, len(pending), _RESTORE_CHUNK):
            self._restore(pending[lo:lo + _RESTORE_CHUNK])
        self._drop_archive()

    def _restore(self, ids: list[int]) -> None:
        """Build the ``COMPLETED`` streams of archived rows ``ids``.  A
        cycle number becomes one int object however many streams hold
        it, as when each cycle's admissions shared it."""
        index = np.asarray(ids, dtype=np.int64)
        columns = [self._columns[name][index].tolist()
                   for name in ARCHIVE_COLUMNS]
        slots = self._slots
        cycles: dict[int, int] = {}
        cycle = cycles.setdefault
        completed = StreamStatus.COMPLETED
        for stream_id, obj, admitted, phase, rate, read, deliver, start, \
                delivered, rebuilt in zip(ids, *columns):
            stream = Stream(stream_id, obj, cycle(admitted, admitted),
                            phase, rate)
            stream.status = completed
            stream.is_active = False
            stream.next_read_track = read
            stream.next_delivery_track = deliver
            if start >= 0:
                stream.delivery_start_cycle = cycle(start, start)
            stream.delivered_tracks = delivered
            stream.reconstructed_tracks = rebuilt
            slots[stream_id] = stream


class _Values(ValuesView[Stream]):
    """A registry's streams in id order, read straight from its slots."""

    __slots__ = ()

    def __iter__(self) -> Iterator[Stream]:
        registry = cast(StreamRegistry, self._mapping)
        registry._restore_all()
        for stream in registry._slots:
            if stream is not _ABSENT:
                yield cast(Stream, stream)
