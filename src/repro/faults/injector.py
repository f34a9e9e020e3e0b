"""Fault injection for the cycle-based server simulator.

Two flavours:

* :class:`FaultSchedule` — deterministic scripted failures/repairs keyed by
  cycle number, used to reproduce the paper's worked failure scenarios
  (e.g. "disk 2 fails just before cycle 1", Figure 6).
* :class:`ExponentialFaultInjector` — stochastic failures/repairs with
  exponential lifetimes on the DES kernel, used by the timed co-simulation
  (:meth:`repro.server.server.MultimediaServer.run_timed`).
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Callable, Iterable, Iterator,
                    Optional)

if TYPE_CHECKING:
    from repro.sched.base import CycleScheduler

from repro.sim.kernel import Environment
from repro.sim.rng import RandomSource


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
    """

    def __init__(self, events: Iterable[FaultEvent] = ()) -> None:
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

    def apply(self, scheduler: "CycleScheduler",
              cycle: int) -> list[FaultEvent]:
        """Apply this schedule's events due before ``cycle``; returns them.

        Raises :class:`~repro.errors.LayoutError` if an event names a
        disk the scheduler's array does not have.
        """
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


class ExponentialFaultInjector:
    """Exponential failure/repair processes on the DES kernel.

    One generator process per disk: sleep ``Exp(mttf)``, call ``on_fail``,
    sleep ``Exp(mttr)``, call ``on_repair``, repeat.  The callbacks receive
    the disk id, so the injector can drive either a bare
    :class:`~repro.disk.drive.DiskArray` or a scheduler.
    """

    def __init__(self, env: Environment, num_disks: int,
                 mttf_s: float, mttr_s: float, rng: RandomSource,
                 on_fail: Callable[[int], None],
                 on_repair: Callable[[int], None]) -> None:
        if mttf_s <= 0 or mttr_s <= 0:
            raise ValueError("mttf and mttr must be positive")
        self.env = env
        self.num_disks = num_disks
        self.mttf_s = mttf_s
        self.mttr_s = mttr_s
        self.rng = rng
        self.on_fail = on_fail
        self.on_repair = on_repair
        self.failures_injected = 0
        self.repairs_completed = 0

    def start(self) -> None:
        """Launch one lifetime process per disk."""
        for disk_id in range(self.num_disks):
            self.env.process(self._lifetime(disk_id),
                             name=f"disk-{disk_id}-faults")

    def _lifetime(self, disk_id: int) -> Iterator[object]:
        stream_name = f"disk-{disk_id}"
        while True:
            yield self.env.timeout(
                self.rng.exponential(stream_name, self.mttf_s))
            self.failures_injected += 1
            self.on_fail(disk_id)
            yield self.env.timeout(
                self.rng.exponential(stream_name, self.mttr_s))
            self.repairs_completed += 1
            self.on_repair(disk_id)
