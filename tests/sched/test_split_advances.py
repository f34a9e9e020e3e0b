"""Split advances: a run cut into driver advances ends where one run ends.

A :class:`~repro.sched.base.Churn` driver pauses its epoch at the end of
an advance and resumes it in the next, so where a run is cut must not
show in any outcome.  Each example draws a five-scheme farm, a run cut
at random barriers, trace or closed-loop arrivals (some advances bring
none), and faults on a barrier or one cycle after it: fail, repair,
DEGRADE/RESTORE and a mid-cycle strike; for SR and PD an online rebuild
that runs across the barriers, and for any scheme a title placed at a
barrier and requested right after it.  It runs four ways:

* ``driver``: one driver, one advance per piece, one close;
* ``calls``: one :meth:`~repro.sched.base.CycleScheduler.run_churn` per
  piece, which enters and exits the engine at every barrier;
* ``scalar``: the same pieces with fast-forward off;
* ``one-run``: one ``run_churn`` over the whole run (when no title is
  placed mid-run).

Every way ends on the same state digest, report rows, front-door counts
and streams, every slot of each (:func:`~tests.conftest.stream_states`:
the engine's finished admissions are rebuilt from its archive).  The
driver engages the engine on exactly the cycles the
per-piece calls and the one run do (``ff_engaged_cycles`` and
``ff_disengagements``): each enters every window a barrier or an event
leaves, however short.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.experiments.harness import degraded_digest
from repro.faults.injector import FaultAction, FaultEvent, FaultSchedule
from repro.media import MediaObject
from repro.schemes import Scheme
from repro.sched.epoch import ClosedLoop
from repro.server.server import MultimediaServer
from tests.conftest import stream_states, tiny_catalog
from tests.sched.test_fast_forward import _scheme_server

CYCLES = 36
TITLES = 6
#: The disk an SR/PD example fails before cycle 0 and rebuilds online,
#: one block a cycle, so the rebuild runs across the barriers.
REBUILT_DISK = 2
#: The title an example may place at a barrier.
STAGED = MediaObject("staged", 0.1875, 12, seed=99)

#: Fault kinds a barrier can carry: fail, repair and strike on disk 0
#: or 1, DEGRADE and RESTORE on disk 5 or 6 (a failed disk cannot be
#: degraded).
KINDS = ("fail", "repair", "degrade", "restore", "strike")


@dataclass(frozen=True)
class Scenario:
    splits: tuple[int, ...]
    batches: tuple[tuple[int, tuple[int, ...]], ...]
    closed_loop: bool
    faults: tuple[tuple[str, int, int, int], ...]
    rebuild: bool
    place_at: Optional[int]

    def windows(self) -> list[tuple[int, int]]:
        edges = (0, *self.splits, CYCLES)
        return list(zip(edges, edges[1:]))

    def events(self) -> list[FaultEvent]:
        """Each fault at barrier ``split`` plus 0 or 1, in draw order."""
        events = []
        for kind, split, offset, which in self.faults:
            cycle = self.splits[split % len(self.splits)] + offset
            if cycle >= CYCLES:
                continue
            disk = (5 if kind in ("degrade", "restore") else 0) + which
            if kind == "fail":
                events.append(FaultEvent(cycle, disk))
            elif kind == "strike":
                events.append(FaultEvent(cycle, disk, mid_cycle=True))
            elif kind == "repair":
                events.append(FaultEvent(cycle, disk, FaultAction.REPAIR))
            elif kind == "degrade":
                events.append(FaultEvent(cycle, disk, FaultAction.DEGRADE,
                                         slowdown=2.0))
            else:
                events.append(FaultEvent(cycle, disk, FaultAction.RESTORE))
        return events


@st.composite
def scenarios(draw: st.DrawFn, scheme: Scheme) -> Scenario:
    splits = tuple(sorted(draw(st.sets(st.integers(1, CYCLES - 1),
                                       min_size=1, max_size=5))))
    batches = tuple(sorted(draw(st.dictionaries(
        st.integers(0, CYCLES - 1),
        st.lists(st.integers(0, TITLES - 1), min_size=1, max_size=3)
        .map(tuple), max_size=10)).items()))
    faults = tuple(draw(st.lists(st.tuples(
        st.sampled_from(KINDS), st.integers(0, 4), st.integers(0, 1),
        st.integers(0, 1)), max_size=3)))
    return Scenario(
        splits=splits, batches=batches, closed_loop=draw(st.booleans()),
        faults=faults,
        rebuild=scheme in (Scheme.STREAMING_RAID, Scheme.PARITY_DECLUSTERED)
        and draw(st.booleans()),
        place_at=draw(st.one_of(st.none(), st.sampled_from(splits))))


Arrivals = Union[dict[int, tuple[MediaObject, ...]], ClosedLoop]


def _arrivals(server: MultimediaServer, scenario: Scenario, lo: int,
              hi: int) -> Arrivals:
    """The arrivals of cycles ``lo..hi - 1``: a trace window (empty when
    none falls in it) or the closed loop, with the staged title from the
    barrier it is placed at."""
    objects = server.catalog.objects()
    staged = scenario.place_at is not None and lo >= scenario.place_at
    if scenario.closed_loop:
        return ClosedLoop(tuple(objects) + ((STAGED,) if staged else ()))
    trace = {cycle: tuple(objects[i] for i in batch)
             for cycle, batch in scenario.batches if lo <= cycle < hi}
    if staged and lo == scenario.place_at:
        trace[lo] = trace.get(lo, ()) + (STAGED,)
    return trace


def _run(scheme: Scheme, scenario: Scenario, way: str) -> tuple:
    server = _scheme_server(scheme, catalog=tiny_catalog(TITLES, tracks=12))
    sched = server.scheduler
    if scenario.rebuild:
        sched.fail_disk(REBUILT_DISK)
        sched.start_rebuild(REBUILT_DISK, writes_per_cycle=1)
    schedule = FaultSchedule(scenario.events())
    admitted = rejected = 0
    if way == "one-run":
        _, admitted, rejected = sched.run_churn(
            CYCLES, _arrivals(server, scenario, 0, CYCLES), True, schedule)
    else:
        driver = sched.churn(True, schedule) if way == "driver" else None
        for lo, hi in scenario.windows():
            if lo == scenario.place_at:
                server.layout.place(STAGED)
                server.layout.materialise_object(server.array, STAGED.name)
            arrivals = _arrivals(server, scenario, lo, hi)
            if driver is not None:
                _, a, r = driver.advance(hi - lo, arrivals)
            else:
                _, a, r = sched.run_churn(hi - lo, arrivals,
                                          way == "calls", schedule)
            admitted += a
            rejected += r
        if driver is not None:
            driver.close()
    assert sched._holder is None
    return (degraded_digest(server), admitted, rejected,
            server.report.to_rows(), stream_states(server),
            server.report.ff_engaged_cycles,
            dict(server.report.ff_disengagements))


def _check(scheme: Scheme, scenario: Scenario) -> None:
    driver = _run(scheme, scenario, "driver")
    assert driver == _run(scheme, scenario, "calls")
    assert driver[:5] == _run(scheme, scenario, "scalar")[:5]
    if scenario.place_at is None:
        assert driver == _run(scheme, scenario, "one-run")


#: Examples every scheme runs first: an empty first window entered and
#: resumed by a window with arrivals; a resume past a placement; a
#: fail/repair and DEGRADE/RESTORE on and after barriers; a mid-cycle
#: strike on a barrier.
EXAMPLES = (
    Scenario(splits=(6, 14, 25), batches=((8, (0, 1)), (9, (2,)),
                                          (20, (3, 4, 5))),
             closed_loop=False, faults=(), rebuild=False, place_at=None),
    Scenario(splits=(6, 14, 25), batches=((1, (0, 1)), (16, (2,))),
             closed_loop=False, faults=(), rebuild=False, place_at=14),
    Scenario(splits=(6, 14, 25), batches=((0, (0, 1, 2)), (7, (3,))),
             closed_loop=False,
             faults=(("fail", 0, 0, 1), ("repair", 1, 1, 1),
                     ("degrade", 1, 0, 0), ("restore", 2, 1, 0)),
             rebuild=False, place_at=None),
    Scenario(splits=(8, 20), batches=(), closed_loop=True,
             faults=(("strike", 0, 0, 0), ("repair", 1, 0, 0)),
             rebuild=False, place_at=None),
)
#: SR and PD also run a rebuild in flight at the first barrier that
#: completes before the run ends.
REBUILD_EXAMPLE = Scenario(splits=(5, 12, 19),
                           batches=((0, (0, 1)), (13, (2, 3))),
                           closed_loop=False, faults=(), rebuild=True,
                           place_at=None)


def _scheme_test(scheme: Scheme) -> Callable[..., None]:
    @settings(max_examples=40, deadline=None)
    @given(scenario=scenarios(scheme))
    def test(scenario: Scenario) -> None:
        _check(scheme, scenario)

    for scenario in EXAMPLES:
        test = example(scenario=scenario)(test)
    if scheme in (Scheme.STREAMING_RAID, Scheme.PARITY_DECLUSTERED):
        test = example(scenario=REBUILD_EXAMPLE)(test)
    return test


test_split_advances_sr = _scheme_test(Scheme.STREAMING_RAID)
test_split_advances_sg = _scheme_test(Scheme.STAGGERED_GROUP)
test_split_advances_nc = _scheme_test(Scheme.NON_CLUSTERED)
test_split_advances_ib = _scheme_test(Scheme.IMPROVED_BANDWIDTH)
test_split_advances_pd = _scheme_test(Scheme.PARITY_DECLUSTERED)


@pytest.mark.parametrize("scheme", [Scheme.STREAMING_RAID,
                                    Scheme.PARITY_DECLUSTERED],
                         ids=lambda s: s.value)
def test_the_rebuild_example_completes_across_barriers(scheme: Scheme) -> None:
    """The rebuild example is what it claims: its rebuild is in flight
    while the epoch is paused at the first barrier and completes before
    the run ends, through the engine's one rebuild-complete bail."""
    server = _scheme_server(scheme, catalog=tiny_catalog(TITLES, tracks=12))
    sched = server.scheduler
    sched.fail_disk(REBUILT_DISK)
    rebuilder = sched.start_rebuild(REBUILT_DISK, writes_per_cycle=1)
    driver = sched.churn()
    for index, (lo, hi) in enumerate(REBUILD_EXAMPLE.windows()):
        driver.advance(hi - lo, _arrivals(server, REBUILD_EXAMPLE, lo, hi))
        if index == 0:
            assert sched._holder is driver
            assert 0 < rebuilder.blocks_rebuilt < rebuilder.total_blocks
    driver.close()
    assert rebuilder.completed and not server.array[REBUILT_DISK].is_failed
    assert server.report.ff_disengagements.get("rebuild-complete") == 1
