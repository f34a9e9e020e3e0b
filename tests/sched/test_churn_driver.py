"""The churn driver: one epoch across advances, and the guard around it.

A :class:`~repro.sched.base.Churn` driver pauses an epoch that reaches
the end of an advance and resumes it in the next, so between two
advances the streams, the disk read counters and the tracker's peaks
lag its row pool.  Every scheduler call that would read or change that
state raises instead, before it touches anything: a planted call between
two advances must raise, and the run must then end exactly where an
uninterrupted run ends.
"""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.experiments.harness import degraded_digest
from repro.schemes import ALL_IMPLEMENTED_SCHEMES, Scheme
from repro.sched import epoch
from repro.sched.base import CycleScheduler
from repro.server.server import MultimediaServer
from tests.conftest import tiny_catalog
from tests.sched.test_fast_forward import _scheme_server

CYCLES = 24
#: The barrier the planted call sits at.
SPLIT = 10


def _server(scheme: Scheme = Scheme.STREAMING_RAID) -> MultimediaServer:
    return _scheme_server(scheme, catalog=tiny_catalog(6, tracks=24))


def _arrivals(server: MultimediaServer) -> dict[int, tuple]:
    """Two arrivals every third cycle: streams start, finish and are
    replaced on both sides of the barrier."""
    objects = server.catalog.objects()
    return {cycle: (objects[cycle % 6], objects[(cycle + 1) % 6])
            for cycle in range(0, CYCLES, 3)}


def _state(server: MultimediaServer) -> tuple:
    sched = server.scheduler
    return (degraded_digest(server),
            tuple(sched.tracker.stream_peak(i) for i in sorted(sched.streams)),
            sched.redundant_fault_commands,
            server.report.ff_engaged_cycles,
            dict(server.report.ff_disengagements))


def _uninterrupted(scheme: Scheme = Scheme.STREAMING_RAID) -> tuple:
    server = _server(scheme)
    server.scheduler.run_churn(CYCLES, _arrivals(server))
    return _state(server)


#: Every call the scheduler refuses while a driver holds an epoch open.
PLANTED = {
    "run_cycle": lambda sched, obj: sched.run_cycle(),
    "admit": lambda sched, obj: sched.admit(obj),
    "admit_batch": lambda sched, obj: sched.admit_batch((obj,)),
    "active_streams": lambda sched, obj: sched.active_streams,
    "streams": lambda sched, obj: sched.streams,
    "terminate_stream": lambda sched, obj: sched.terminate_stream(0),
    "stop_stream": lambda sched, obj: sched.stop_stream(0),
    "fail_disk": lambda sched, obj: sched.fail_disk(1),
    "repair_disk": lambda sched, obj: sched.repair_disk(1),
    "degrade_disk": lambda sched, obj: sched.degrade_disk(1, 2.0),
    "restore_disk": lambda sched, obj: sched.restore_disk(1),
    "inject_media_error": lambda sched, obj: sched.inject_media_error(1, 0),
    "start_rebuild": lambda sched, obj: sched.start_rebuild(1),
    "second-driver": lambda sched, obj: sched.churn().advance(1, {}),
    "run_churn": lambda sched, obj: sched.run_churn(1, {}),
}


@pytest.mark.parametrize("call", sorted(PLANTED))
def test_a_call_between_advances_raises_and_changes_nothing(
        call: str) -> None:
    server = _server()
    sched = server.scheduler
    arrivals = _arrivals(server)
    driver = sched.churn()
    driver.advance(SPLIT, arrivals)
    assert sched._holder is driver, "the epoch must be paused here"
    with pytest.raises(SimulationError, match=r"while Churn\(cycle=10, "
                       r"fast_forward=True, epoch open\) holds an epoch"):
        PLANTED[call](sched, server.catalog.get("m5"))
    driver.advance(CYCLES - SPLIT, arrivals)
    driver.close()
    assert sched._holder is None
    assert _state(server) == _uninterrupted()


@pytest.mark.parametrize("scheme", ALL_IMPLEMENTED_SCHEMES,
                         ids=lambda s: s.value)
def test_one_epoch_spans_every_advance(
        scheme: Scheme, monkeypatch: pytest.MonkeyPatch) -> None:
    """One entry for the whole run; the engaged cycles land at the one
    exit, and a second close changes nothing."""
    entries: list[int] = []
    enter = epoch._Epoch.enter

    def counted(self: epoch._Epoch, sched: CycleScheduler,
                arrivals: epoch.Arrivals) -> object:
        entries.append(sched.cycle_index)
        return enter(self, sched, arrivals)

    monkeypatch.setattr(epoch._Epoch, "enter", counted)
    server = _server(scheme)
    arrivals = _arrivals(server)
    driver = server.scheduler.churn()
    for _ in range(CYCLES // 4):
        driver.advance(4, arrivals)
    assert server.report.ff_engaged_cycles == 0
    driver.close()
    driver.close()
    assert entries == [0]
    assert server.report.ff_engaged_cycles == CYCLES
    monkeypatch.setattr(epoch._Epoch, "enter", enter)
    assert _state(server) == _uninterrupted(scheme)


@pytest.mark.parametrize("scheme", ALL_IMPLEMENTED_SCHEMES,
                         ids=lambda s: s.value)
def test_streams_active_counts_the_streams_in_service(scheme: Scheme) -> None:
    """At every barrier the open epoch's live rows equal the active
    streams a closed run reports there, finished rows excluded."""
    held, closed = _server(scheme), _server(scheme)
    driver = held.scheduler.churn()
    counts = []
    for _ in range(0, CYCLES, 3):
        driver.advance(3, _arrivals(held))
        closed.scheduler.run_churn(3, _arrivals(closed))
        counts.append(driver.streams_active())
        assert counts[-1] == len(closed.scheduler.active_streams)
    assert held.scheduler._holder is driver
    assert max(counts) > 0
    driver.close()
    assert driver.streams_active() == len(held.scheduler.active_streams)


@pytest.mark.parametrize("scheme", ALL_IMPLEMENTED_SCHEMES,
                         ids=lambda s: s.value)
def test_a_resume_swaps_trace_and_closed_loop_arrivals(scheme: Scheme) -> None:
    """An epoch entered on a trace and resumed on a closed loop counts
    the titles in service from its live rows, and back again: the run
    ends where the scalar loop ends, engaged like per-window calls."""
    def windows(server: MultimediaServer) -> list[tuple[int, object]]:
        loop = epoch.ClosedLoop(tuple(server.catalog.objects()[:4]))
        return [(6, _arrivals(server)), (6, loop), (6, _arrivals(server)),
                (6, loop)]

    held = _server(scheme)
    driver = held.scheduler.churn()
    for count, arrivals in windows(held):
        driver.advance(count, arrivals)
        assert held.scheduler._holder is driver
    driver.close()
    calls, scalar = _server(scheme), _server(scheme)
    for count, arrivals in windows(calls):
        calls.scheduler.run_churn(count, arrivals)
    for count, arrivals in windows(scalar):
        scalar.scheduler.run_churn(count, arrivals, False)
    assert _state(held) == _state(calls)
    assert _state(held)[:3] == _state(scalar)[:3]
