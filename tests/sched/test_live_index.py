"""The live index: the per-cycle walks visit the streams in service.

``CycleScheduler.streams`` keeps every stream ever admitted.  The live
index beside it holds the streams not yet seen finished, in id order;
the scalar cycle's walks (planning, phase loads, delivery, the status
counts) and the epoch engine's entry walk read it, and a prune in
``_finalise`` and at each engine entry drops the streams that left
service.  The engine's own admissions join it only at its exit, and
only those still live.  These tests pin what the index
holds after every cycle of a churn run, scalar and fast-forward,
through each way a stream leaves service (completion, a data-loss shed,
a capacity shed, a viewer stop), check the running
``streams_terminated`` count against a brute-force one, and check that
a retired stream's pending hiccup causes no longer hold the epoch
engine off.
"""

from __future__ import annotations

import pytest

from repro.analysis import SystemParameters
from repro.schemes import ALL_IMPLEMENTED_SCHEMES, Scheme
from repro.server.server import MultimediaServer
from repro.server.stream import StreamStatus
from tests.conftest import tiny_catalog
from tests.sched.test_fast_forward import _fingerprint, _scheme_server

#: Cycles of the churn run: long enough for many completions.
CHURN_CYCLES = 90
#: Between-cycle events of the churn run, by the cycle they precede.
DOUBLE_FAILURE, DOUBLE_REPAIR = 12, 16
SLOWDOWN, RESTORE = 30, 34
VIEWER_STOP = 50


def _check_index(scheduler, report, previously_active: set[int]) -> set[int]:
    """Assert what the live index holds after one cycle; return the ids
    of the streams in service for the next check."""
    streams = scheduler.streams
    index = scheduler._live
    assert list(index) == sorted(index)
    assert all(streams[stream_id] is stream
               for stream_id, stream in index.items())
    active = {stream_id for stream_id, stream in streams.items()
              if stream.is_active}
    assert active <= index.keys()
    # Anything else left service in the cycle just run or just before.
    assert all(stream.is_active or stream_id in previously_active
               for stream_id, stream in index.items())
    # A retired stream's pending hiccup causes leave with it.
    assert all(stream_id in index
               for stream_id, _track in scheduler._lost_causes)
    statuses = [stream.status for stream in streams.values()]
    assert report.streams_active == statuses.count(StreamStatus.ACTIVE)
    assert report.streams_terminated == statuses.count(
        StreamStatus.TERMINATED)
    return active


def _churn_drive(server: MultimediaServer, fast_forward: bool) -> list:
    """One arrival per cycle, one ``run_churn(1, ...)`` call at a time,
    with a double failure, a fail-slow disk and a viewer stop scripted
    between calls."""
    scheduler = server.scheduler
    objects = [server.catalog.get(name) for name in server.catalog.names()]
    arrivals = {cycle: (objects[cycle % len(objects)],)
                for cycle in range(CHURN_CYCLES)}
    reports: list = []
    active: set[int] = set()
    for cycle in range(CHURN_CYCLES):
        if cycle == DOUBLE_FAILURE:
            server.fail_disk(0)
            server.fail_disk(1)
        elif cycle == DOUBLE_REPAIR:
            server.repair_disk(0)
            server.repair_disk(1)
        elif cycle == SLOWDOWN:
            server.degrade_disk(3, 2.0)
        elif cycle == RESTORE:
            server.restore_disk(3)
        elif cycle == VIEWER_STOP:
            scheduler.stop_stream(min(active))
        step, _admitted, _rejected = scheduler.run_churn(
            1, arrivals, fast_forward=fast_forward)
        reports += step
        active = _check_index(scheduler, step[-1], active)
    return reports


@pytest.mark.parametrize("scheme", ALL_IMPLEMENTED_SCHEMES,
                         ids=lambda s: s.value)
def test_live_index_holds_the_streams_in_service(scheme: Scheme) -> None:
    results = []
    for fast_forward in (False, True):
        server = _scheme_server(scheme, catalog=tiny_catalog(6, tracks=20))
        reports = _churn_drive(server, fast_forward)
        results.append(_fingerprint(server, reports))
        statuses = [s.status for s in server.scheduler.streams.values()]
        data_loss_shed = sum(len(event.shed_streams)
                             for event in server.report.data_loss_events)
        # Every way out of service happened: completions, a data-loss
        # shed, a capacity shed beyond it, and the viewer stop.
        assert statuses.count(StreamStatus.COMPLETED) > 0
        assert data_loss_shed > 0
        assert statuses.count(StreamStatus.TERMINATED) > data_loss_shed
        assert statuses.count(StreamStatus.STOPPED) == 1
    assert results[1] == results[0]
    assert server.report.ff_engaged_cycles > 0


@pytest.mark.parametrize("scheme", ALL_IMPLEMENTED_SCHEMES,
                         ids=lambda s: s.value)
def test_shed_streams_release_the_engine(scheme: Scheme) -> None:
    """A stream shed with lost tracks pending never delivers them; once
    it leaves the live index its causes go too, so the engine engages
    again after the repair, bit-equal to the scalar run."""
    results = []
    for fast_forward in (False, True):
        server = MultimediaServer.build(
            SystemParameters.paper_table1(num_disks=20), 5, scheme)
        names = server.catalog.names()
        for name in names:
            server.admit(name)
        server.run_cycles(3)
        for disk_id in (0, 1):
            server.fail_disk(disk_id)
        for disk_id in (0, 1):
            server.repair_disk(disk_id)
        assert any(event.shed_streams
                   for event in server.report.data_loss_events)
        for name in names:
            server.admit(name)
        reports = server.run_cycles(60, fast_forward=fast_forward)
        results.append(_fingerprint(server, reports))
    assert server.lost_tracks == {}
    assert results[1] == results[0]
    assert server.report.ff_engaged_cycles > 0
