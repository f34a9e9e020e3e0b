"""The stream registry against an eager one.

``CycleScheduler.streams`` is a read-only, id-ordered mapping.  A stream
the epoch engine admitted and saw finish is an archived row until it is
read; the scalar loop builds and keeps every stream.  On the same churn
run the two registries must agree on ``len``, iteration order, ``in``
and ``get`` for every id and for ids and keys they do not hold, and
those queries must build nothing; a read builds one stream and keeps
it.  :class:`StreamRegistry` itself handles ids that start past 0.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.media import MediaObject
from repro.schemes import ALL_IMPLEMENTED_SCHEMES, Scheme
from repro.server.server import MultimediaServer
from repro.server.stream import (
    ARCHIVE_COLUMNS,
    Stream,
    StreamRegistry,
    StreamStatus,
)
from tests.conftest import stream_states, tiny_catalog
from tests.sched.test_fast_forward import _scheme_server

CYCLES = 80


def _churned(scheme: Scheme, fast_forward: bool) -> MultimediaServer:
    """Two arrivals a cycle on short titles: hundreds of admissions, a
    few dozen live at a time, so the engine retires and archives rows
    mid-epoch and again at its exit."""
    server = _scheme_server(scheme, catalog=tiny_catalog(6, tracks=10))
    objects = server.catalog.objects()
    arrivals = {cycle: (objects[cycle % 6], objects[(cycle + 3) % 6])
                for cycle in range(CYCLES)}
    server.scheduler.run_churn(CYCLES, arrivals, fast_forward=fast_forward)
    return server


def _archived(registry: StreamRegistry) -> int:
    return sum(1 for stream_id in registry
               if registry._slots[stream_id] is None)


@pytest.mark.parametrize("scheme", ALL_IMPLEMENTED_SCHEMES,
                         ids=lambda s: s.value)
def test_the_registry_answers_like_an_eager_one(scheme: Scheme) -> None:
    fast, scalar = _churned(scheme, True), _churned(scheme, False)
    eager = dict(scalar.scheduler.streams.items())
    registry = fast.scheduler.streams
    archived = _archived(registry)
    assert archived > len(registry) // 2
    assert _archived(scalar.scheduler.streams) == 0
    probes = [-1, *range(len(eager) + 2), "0", None, 1.5]
    # Size, order and membership come from the registry alone.
    assert len(registry) == len(eager)
    assert list(registry) == list(eager) == sorted(eager)
    assert list(registry.keys()) == list(eager.keys())
    assert [probe in registry for probe in probes] == \
        [probe in eager for probe in probes]
    assert _archived(registry) == archived
    # ``get`` builds the streams it returns.
    assert [registry.get(probe) is None  # type: ignore[arg-type]
            for probe in probes] == \
        [eager.get(probe) is None  # type: ignore[call-overload]
         for probe in probes]
    assert _archived(registry) == 0
    assert stream_states(fast) == stream_states(scalar)


def test_a_read_builds_one_stream_and_keeps_it() -> None:
    server = _churned(Scheme.STREAMING_RAID, True)
    registry = server.scheduler.streams
    archived = [stream_id for stream_id in registry
                if registry._slots[stream_id] is None]
    first = archived[0]
    stream = registry[first]
    assert registry[first] is stream is registry.get(first)
    assert _archived(registry) == len(archived) - 1
    assert stream.status is StreamStatus.COMPLETED and not stream.is_active
    assert stream.next_delivery_track == stream.num_tracks
    assert (stream.buffer, stream.parity_buffer, stream.accumulators,
            stream.lost_tracks) == ({}, {}, {}, set())
    # A whole-registry read builds the rest and keeps the first.
    values = list(registry.values())
    assert _archived(registry) == 0
    assert values[archived.index(first)] is stream
    assert [s.stream_id for s in values] == list(registry)
    assert registry == dict(registry.items())
    with pytest.raises(KeyError):
        registry[len(registry)]


def _row(obj: MediaObject, stream_id: int) -> dict[str, np.ndarray]:
    """The archive columns of one finished rate-1 stream."""
    values = {"object": obj, "admitted_cycle": 4, "phase": 1, "rate": 1,
              "next_read_track": obj.num_tracks,
              "next_delivery_track": obj.num_tracks,
              "delivery_start_cycle": 5,
              "delivered_tracks": obj.num_tracks,
              "reconstructed_tracks": stream_id}
    assert tuple(values) == ARCHIVE_COLUMNS
    return {name: np.array([value], dtype=object if name == "object"
                           else np.int64) for name, value in values.items()}


def test_ids_may_start_past_zero() -> None:
    """Ids 0-4 were never admitted; 5 and 7 are streams, 6 an archived
    row, reserved before 7 registers in its place."""
    obj = MediaObject("m", 0.1875, 8)
    registry = StreamRegistry()
    registry.add([Stream(5, obj)])
    registry.archive(np.array([6]), _row(obj, 6))
    registry.reserve(range(6, 8))
    late = Stream(7, obj, admitted_cycle=3)
    registry.add([late])
    assert len(registry) == 3
    assert list(registry) == [5, 6, 7]
    assert [i in registry for i in range(-1, 10)] == \
        [False] * 6 + [True] * 3 + [False] * 2
    assert registry.get(2) is None and registry.get(9, late) is late
    assert registry[7] is late
    restored = registry[6]
    assert (restored.stream_id, restored.admitted_cycle, restored.phase,
            restored.delivery_start_cycle, restored.reconstructed_tracks,
            restored.status) == (6, 4, 1, 5, 6, StreamStatus.COMPLETED)
    for missing in (0, 4, 8, "6"):
        with pytest.raises(KeyError):
            registry[missing]  # type: ignore[index]
    with pytest.raises(ValueError, match="no reserved place"):
        registry.add([Stream(3, obj)])
    with pytest.raises(ValueError, match="no reserved place"):
        registry.add([Stream(7, obj)])
