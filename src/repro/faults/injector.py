"""Fault injection for the cycle-based server simulator.

Every fault is a :class:`FaultEvent` in a :class:`FaultSchedule`, keyed
by the cycle whose top it strikes:

* scripted schedules reproduce the paper's worked failure scenarios
  (e.g. "disk 2 fails just before cycle 1", Figure 6) and carry the
  chaos and cluster storms;
* :meth:`FaultSchedule.exponential` samples the paper's stochastic
  model — independent exponential fail/repair lifetimes per disk (MTTF,
  MTTR; eqs. 4–6) — for the timed runs of
  :meth:`repro.server.server.MultimediaServer.run_timed`.
"""

from __future__ import annotations

import bisect
import enum
import math
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

if TYPE_CHECKING:
    from repro.faults.domain import SectorScrubber
    from repro.sched.base import CycleScheduler

from repro.errors import ConfigurationError
from repro.sim.rng import RandomSource


def cycles_before(time_s: float, cycle_length_s: float) -> int:
    """How many cycles start before ``time_s``, cycle ``k`` starting at
    ``k * cycle_length_s``.

    Equally, the index of the first cycle that starts at or after
    ``time_s``: the top a fault or scrub pass at that time strikes.
    Start times are multiplied, never accumulated, so the clock does
    not drift over a long run.
    """
    count = max(0, math.ceil(time_s / cycle_length_s))
    while count > 0 and (count - 1) * cycle_length_s >= time_s:
        count -= 1
    while count * cycle_length_s < time_s:
        count += 1
    return count


class FaultAction(enum.Enum):
    """What happens to the disk."""

    FAIL = "fail"
    REPAIR = "repair"
    DEGRADE = "degrade"
    RESTORE = "restore"
    MEDIA_ERROR = "media-error"


@dataclass(frozen=True, order=True)
class FaultEvent:
    """A scripted fault: *before* which cycle, what, to which disk.

    ``slowdown`` parameterises :attr:`FaultAction.DEGRADE` (the fail-slow
    factor, > 1); ``position`` and ``transient`` parameterise
    :attr:`FaultAction.MEDIA_ERROR` (which track, and whether a retry can
    clear it).  Construction validates the fields an action needs; the
    disk id's range is checked at :meth:`FaultSchedule.apply`, where the
    target array is known.
    """

    cycle: int
    disk_id: int
    action: FaultAction = FaultAction.FAIL
    mid_cycle: bool = False
    slowdown: float = 1.0
    position: int = -1
    transient: bool = False

    def __post_init__(self) -> None:
        if self.cycle < 0:
            raise ValueError(f"event cycle must be >= 0, got {self.cycle}")
        if self.disk_id < 0:
            raise ValueError(f"disk id must be >= 0, got {self.disk_id}")
        if self.action is FaultAction.DEGRADE and self.slowdown <= 1.0:
            raise ValueError(
                f"a DEGRADE event needs slowdown > 1, got {self.slowdown}"
            )
        if self.action is FaultAction.MEDIA_ERROR and self.position < 0:
            raise ValueError(
                "a MEDIA_ERROR event needs a track position >= 0, got "
                f"{self.position}"
            )


class FaultSchedule:
    """A deterministic list of fault events, applied between cycles.

    Events are indexed by cycle at construction, so the per-cycle lookup
    in the simulation loop is O(events due), not O(total events).
    ``patrol``, a ``(scrubber, tops)`` pair, adds one
    :class:`~repro.faults.domain.SectorScrubber` pass at each listed
    cycle top (a top may repeat), ahead of that top's events.
    """

    def __init__(self, events: Iterable[FaultEvent] = (),
                 patrol: Optional[tuple["SectorScrubber", Iterable[int]]]
                 = None) -> None:
        # Stable sort by cycle ONLY: within a cycle the script's order is
        # semantic (a repair may re-qualify a disk for the degrade that
        # follows it), and enum members are not orderable anyway.
        self._events = sorted(events, key=lambda e: e.cycle)
        self._by_cycle: dict[int, list[FaultEvent]] = {}
        for event in self._events:
            self._by_cycle.setdefault(event.cycle, []).append(event)
        self._cycles = sorted(self._by_cycle)
        self._mid_cycle_strikes = frozenset(
            event.cycle for event in self._events
            if event.action is FaultAction.FAIL and event.mid_cycle)
        self.scrubber = patrol[0] if patrol is not None else None
        self._passes = Counter(patrol[1] if patrol is not None else ())

    @classmethod
    def single_failure(cls, cycle: int, disk_id: int,
                       repair_cycle: Optional[int] = None,
                       mid_cycle: bool = False) -> "FaultSchedule":
        """The common case: one disk fails, optionally repaired later."""
        events = [FaultEvent(cycle, disk_id, FaultAction.FAIL, mid_cycle)]
        if repair_cycle is not None:
            if repair_cycle <= cycle:
                raise ValueError("repair must come after the failure")
            events.append(FaultEvent(repair_cycle, disk_id,
                                     FaultAction.REPAIR))
        return cls(events)

    @classmethod
    def exponential(cls, num_disks: int, mttf_s: float, mttr_s: float,
                    cycle_length_s: float, horizon_s: float,
                    rng: RandomSource,
                    first_cycle: int = 0) -> "FaultSchedule":
        """Sample exponential fail/repair lifetimes up to ``horizon_s``.

        Disk ``d`` alternates ``Exp(mttf_s)`` up-times and
        ``Exp(mttr_s)`` repair times on the ``disk-{d}`` stream of
        ``rng``, so adding disks never moves the existing disks' events.
        Every FAIL and REPAIR at or before ``horizon_s`` becomes an
        event.  Stable-sorted by time, each lands at the top of the
        first cycle that starts at or after it: ``first_cycle + k``,
        where cycle ``k`` of the horizon starts at
        ``k * cycle_length_s`` (:func:`cycles_before`).
        """
        if mttf_s <= 0 or mttr_s <= 0:
            raise ValueError("mttf and mttr must be positive")
        if cycle_length_s <= 0:
            raise ValueError("cycle length must be positive")
        timed: list[tuple[float, int, FaultAction]] = []
        for disk_id in range(num_disks):
            stream = f"disk-{disk_id}"
            clock, up = 0.0, True
            while True:
                clock += rng.exponential(stream, mttf_s if up else mttr_s)
                if clock > horizon_s:
                    break
                timed.append((clock, disk_id, FaultAction.FAIL if up
                              else FaultAction.REPAIR))
                up = not up
        timed.sort(key=lambda item: item[0])
        return cls(FaultEvent(first_cycle + cycles_before(time_s,
                                                          cycle_length_s),
                              disk_id, action)
                   for time_s, disk_id, action in timed)

    def events_before_cycle(self, cycle: int) -> list[FaultEvent]:
        """Events that strike just before the given cycle runs."""
        return list(self._by_cycle.get(cycle, ()))

    def epoch_end(self, cycle: int, end: int) -> int:
        """Where a fast-forward epoch entered at ``cycle`` must stop.

        The next cycle after ``cycle`` that has an event, capped at
        ``end``, so every event lands at the top of the cycle it names.
        A mid-cycle FAIL strike there (at ``end`` too) invalidates the
        reads the previous cycle had in flight — reads a batched cycle
        never materialises — so the epoch stops one cycle earlier and
        the cycle feeding the strike runs scalar.
        """
        index = bisect.bisect_right(self._cycles, cycle)
        stop = (min(self._cycles[index], end)
                if index < len(self._cycles) else end)
        return stop - 1 if stop in self._mid_cycle_strikes else stop

    def credit_passes(self, first: int, stop: int) -> None:
        """Credit the scrub passes at tops ``first..stop - 1`` as idle."""
        if self.scrubber is not None:
            self.scrubber.advance_idle(
                sum(self._passes[top] for top in range(first, stop)))

    def apply(self, scheduler: "CycleScheduler",
              cycle: int) -> list[FaultEvent]:
        """Run the scrub passes at ``cycle``'s top, then apply the events
        due before ``cycle``; returns the events.

        Raises :class:`~repro.errors.ConfigurationError` if the patrol
        belongs to another array, :class:`~repro.errors.LayoutError` if
        an event names a disk the scheduler's array does not have.
        """
        if self.scrubber is not None:
            if self.scrubber.array is not scheduler.array:
                raise ConfigurationError("the patrol scrubs another array")
            for _ in range(self._passes[cycle]):
                self.scrubber.step()
        due = self.events_before_cycle(cycle)
        for event in due:
            if event.action is FaultAction.FAIL:
                scheduler.fail_disk(event.disk_id, mid_cycle=event.mid_cycle)
            elif event.action is FaultAction.REPAIR:
                scheduler.repair_disk(event.disk_id)
            elif event.action is FaultAction.DEGRADE:
                scheduler.degrade_disk(event.disk_id, event.slowdown)
            elif event.action is FaultAction.RESTORE:
                scheduler.restore_disk(event.disk_id)
            else:
                scheduler.inject_media_error(event.disk_id, event.position,
                                             transient=event.transient)
        return due

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self._events)
