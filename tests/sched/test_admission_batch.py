"""The one admission decision against a per-object reference loop.

:meth:`CycleScheduler._admit_many` decides a whole batch of arrivals
without raising and returns the admitted streams as columns; the scalar
front door (``admit_batch``) and the single
:meth:`CycleScheduler.admit` build and register streams from them
(``_register``), the epoch engine writes them into its row pool.
:func:`reference_admit` takes the same decision one object at a time,
raising :class:`AdmissionError` on every refusal; a batch through it
(:func:`reference_batch`) and through ``_admit_many`` plus
``_register`` must give the same streams, the same refusal count and
the same scheduler state, for random arrivals (rate-1, rate-3 and
non-integer-rate objects, unplaced names, titles with lost tracks),
phase loads and limits.  ``admit`` must raise the reference's message
for each of the four refusals.
"""

from __future__ import annotations

from itertools import repeat

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AdmissionError
from repro.media import Catalog, MediaObject
from repro.schemes import Scheme
from repro.sched.base import CycleScheduler
from repro.server import MultimediaServer
from repro.server.stream import Stream
from tests.conftest import build_server, tiny_catalog

#: Base-rate bandwidth of ``tiny_catalog`` objects (MB/s).
BASE = 0.1875


def _catalog() -> Catalog:
    """Placed titles: two base-rate, one rate-3, one 1.5x and one 0.5x
    (both unschedulable on the cycle)."""
    catalog = tiny_catalog(2, tracks=20)
    catalog.add(MediaObject("fast", 3 * BASE, 30, seed=7))
    catalog.add(MediaObject("odd", 1.5 * BASE, 20, seed=8))
    catalog.add(MediaObject("slow", 0.5 * BASE, 20, seed=9))
    return catalog


#: Titles that are not on disk.
GHOSTS = (MediaObject("ghost", BASE, 20, seed=10),
          MediaObject("ghost3", 3 * BASE, 20, seed=11))


def _server(scheme: Scheme) -> MultimediaServer:
    num_disks = 12 if scheme is Scheme.IMPROVED_BANDWIDTH else 10
    return build_server(scheme, num_disks=num_disks, catalog=_catalog(),
                        verify_payloads=False)


def reference_admit(sched: CycleScheduler, obj: MediaObject,
                    phase_load: list[int], limit: int) -> Stream:
    """The per-object decision, raising on each refusal."""
    if not sched.layout.has_object(obj.name):
        raise AdmissionError(f"object {obj.name!r} is not on disk")
    if sched._known_lost_tracks.get(obj.name):
        raise AdmissionError(
            f"object {obj.name!r} has tracks lost to a multiple-disk "
            "failure; tertiary reload required"
        )
    ratio = obj.bandwidth_mb_s / sched.config.params.object_bandwidth_mb_s
    rate = round(ratio)
    if rate < 1 or abs(ratio - rate) > 1e-6:
        raise AdmissionError(
            f"object {obj.name!r} needs {ratio:.3f}x the base rate; "
            "only integer multiples are schedulable on this cycle"
        )
    load = sum(phase_load)
    if load + rate > limit:
        raise AdmissionError(
            f"at capacity: load {load} of "
            f"{limit} units, request needs {rate}"
        )
    width = len(phase_load)
    phase = min(range(width), key=lambda p: (phase_load[p], p))
    stream = Stream(stream_id=sched._next_stream_id, obj=obj,
                    admitted_cycle=sched.cycle_index, phase=phase, rate=rate)
    sched._next_stream_id += 1
    sched._registry.add([stream])
    sched._live[stream.stream_id] = stream
    phase_load[phase] += rate
    return stream


def reference_batch(sched: CycleScheduler, objects: list[MediaObject],
                    phase_load: list[int],
                    limit: int) -> tuple[list[Stream], int]:
    """One :func:`reference_admit` per arrival, refusals counted."""
    streams: list[Stream] = []
    rejected = 0
    for obj in objects:
        try:
            streams.append(reference_admit(sched, obj, phase_load, limit))
        except AdmissionError:
            rejected += 1
    return streams, rejected


def _stream_key(stream: Stream) -> tuple:
    return (stream.stream_id, stream.object.name, stream.phase, stream.rate,
            stream.admitted_cycle, stream.status)


@settings(max_examples=80, deadline=None)
@given(data=st.data(),
       scheme=st.sampled_from([Scheme.STREAMING_RAID,
                               Scheme.STAGGERED_GROUP,
                               Scheme.IMPROVED_BANDWIDTH]))
def test_batch_decision_matches_reference(data: st.DataObject,
                                          scheme: Scheme) -> None:
    ours, theirs = _server(scheme), _server(scheme)
    titles = list(ours.catalog.objects()) + list(GHOSTS)
    lost = data.draw(st.sets(st.sampled_from(["m0", "fast", "odd"])),
                     label="lost")
    cycle = data.draw(st.integers(0, 50), label="cycle")
    first_id = data.draw(st.integers(0, 20), label="first_id")
    width = ours.scheduler.config.stripe_width
    phase_load = data.draw(st.lists(st.integers(0, 6), min_size=width,
                                    max_size=width), label="phase_load")
    limit = data.draw(st.integers(0, sum(phase_load) + 12), label="limit")
    batch = data.draw(st.lists(st.sampled_from(titles), max_size=24),
                      label="batch")
    for server in (ours, theirs):
        sched = server.scheduler
        sched._known_lost_tracks.update({name: {0} for name in lost})
        sched.cycle_index = cycle
        sched._next_stream_id = first_id
    our_load, their_load = list(phase_load), list(phase_load)

    a = ours.scheduler
    objects, ids, phases, rates = a._admit_many(batch, our_load, limit)
    rejected = len(batch) - len(objects)
    # The decision builds and registers nothing: its columns are the
    # admitted streams.
    assert len(a._registry) == len(a._live) == 0
    assert ids == range(first_id, first_id + len(objects))
    streams = a._register(objects, ids, phases, rates, repeat(cycle))
    expected, expected_rejected = reference_batch(
        theirs.scheduler, batch, their_load, limit)

    assert [_stream_key(s) for s in streams] == \
        [_stream_key(s) for s in expected]
    assert rejected == expected_rejected
    assert our_load == their_load
    b = theirs.scheduler
    assert a._next_stream_id == b._next_stream_id
    for registry in ("streams", "_live"):
        assert {sid: _stream_key(s)
                for sid, s in getattr(a, registry).items()} == \
            {sid: _stream_key(s) for sid, s in getattr(b, registry).items()}
    # Each admitted stream is the very object both indexes hold.
    for stream in streams:
        assert a.streams[stream.stream_id] is stream
        assert a._live[stream.stream_id] is stream


def _refusal(server: MultimediaServer, reason: str) -> MediaObject:
    """Set ``server`` up so that admitting the returned title is refused
    for ``reason``."""
    sched = server.scheduler
    if reason == "not-on-disk":
        return GHOSTS[0]
    if reason == "lost-tracks":
        sched._known_lost_tracks["m1"] = {3}
        return server.catalog.get("m1")
    if reason == "non-integer-rate":
        return server.catalog.get("odd")
    # "at-capacity": after one rate-1 stream, a rate-3 title needs 4 of 3.
    sched.admission_limit = 3
    sched.admit(server.catalog.get("m0"))
    return server.catalog.get("fast")


@pytest.mark.parametrize("reason", ["not-on-disk", "lost-tracks",
                                    "non-integer-rate", "at-capacity"])
def test_admit_raises_the_reference_message(reason: str) -> None:
    ours, theirs = (_server(Scheme.STREAMING_RAID) for _ in range(2))
    obj = _refusal(ours, reason)
    _refusal(theirs, reason)
    ref = theirs.scheduler
    with pytest.raises(AdmissionError) as expected:
        reference_admit(ref, obj, ref._phase_loads(),
                        ref.effective_admission_limit())
    with pytest.raises(AdmissionError) as raised:
        ours.scheduler.admit(obj)
    assert str(raised.value) == str(expected.value)
    # A refusal admits nothing.
    assert ours.scheduler._next_stream_id == ref._next_stream_id
    assert list(ours.scheduler.streams) == list(ref.streams)


def test_admit_returns_the_admitted_stream() -> None:
    server = _server(Scheme.STAGGERED_GROUP)
    sched = server.scheduler
    first = sched.admit(server.catalog.get("fast"))
    second = sched.admit(server.catalog.get("m0"))
    assert (first.stream_id, first.rate, first.phase) == (0, 3, 0)
    # Phase 0 carries three units now: the least-loaded phase is 1.
    assert (second.stream_id, second.rate, second.phase) == (1, 1, 1)
    assert sched.streams == {0: first, 1: second}
