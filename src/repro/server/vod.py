"""The full Figure 1 system: content tier + streaming tier, end to end.

:class:`VideoOnDemandSystem` couples a :class:`MultimediaServer` (the
cycle-scheduled disk farm) with a :class:`ContentManager` (the
tertiary↔disk working set) over one shared layout and disk array:

* a request for a *resident* title starts streaming immediately;
* a request for a *cold* title stages it from the tape library — possibly
  purging unpinned residents — and the stream starts when the load
  completes, cycles later;
* titles with active streams are pinned and cannot be purged mid-play;
* admission control still applies on top (a hot title can be resident
  and the bandwidth still full).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.content.manager import ContentManager, EvictionPolicy, RequestOutcome
from repro.errors import AdmissionError
from repro.media.catalog import Catalog
from repro.server.metrics import CycleReport, SimulationReport
from repro.server.server import MultimediaServer
from repro.server.stream import Stream
from repro.tertiary.tape import TapeLibrary


@dataclass
class VodStats:
    """Front-door accounting for one run."""

    started_immediately: int = 0
    started_after_staging: int = 0
    rejected_capacity: int = 0    # no space even after purging
    rejected_admission: int = 0   # disk-resident but bandwidth full
    pending: int = 0              # staged, waiting for the load to finish


class VideoOnDemandSystem:
    """The complete on-demand pipeline over one shared disk farm."""

    def __init__(self, server: MultimediaServer, library: Catalog,
                 tape: Optional[TapeLibrary] = None,
                 policy: EvictionPolicy = EvictionPolicy.LRU) -> None:
        self.server = server
        self.manager = ContentManager(
            server.layout, server.array, library,
            tape=tape, policy=policy)
        self.stats = VodStats()
        #: Streams currently holding a pin on their object.
        self._pinned_streams: dict[int, str] = {}
        #: (ready_cycle, object_name) loads awaiting completion.
        self._pending_starts: list[tuple[int, str]] = []

    # -- the front door ------------------------------------------------------

    def request(self, name: str) -> Optional[Stream]:
        """One viewer pressing play.

        Returns the stream if it starts this cycle, or None when the title
        must be staged first (the stream starts automatically later) or
        the request was rejected (see :attr:`stats`).
        """
        now_cycle = self.server.cycle_index
        now_s = now_cycle * self.server.config.cycle_length_s
        ticket = self.manager.request(name, now_s=now_s)
        if ticket.outcome is RequestOutcome.REJECTED:
            self.stats.rejected_capacity += 1
            return None
        if ticket.outcome is RequestOutcome.MISS:
            ready_cycle = now_cycle + max(1, math.ceil(
                (ticket.ready_time_s - now_s)
                / self.server.config.cycle_length_s))
            self._pending_starts.append((ready_cycle, name))
            self.stats.pending += 1
            return None
        return self._start_stream(name, staged=False)

    def _start_stream(self, name: str, staged: bool) -> Optional[Stream]:
        try:
            # Admit via the scheduler directly: staged titles live in the
            # library, not in the server's initial catalog.
            stream = self.server.scheduler.admit(
                self.manager.library.get(name))
        except AdmissionError:
            self.stats.rejected_admission += 1
            return None
        self.manager.pin(name)
        self._pinned_streams[stream.stream_id] = name
        if staged:
            self.stats.started_after_staging += 1
        else:
            self.stats.started_immediately += 1
        return stream

    # -- the clock -------------------------------------------------------------

    def run_cycle(self) -> CycleReport:
        """Advance one cycle: start due loads, stream, release pins."""
        self._start_due_loads()
        report = self.server.run_cycle()
        self._release_finished_pins()
        return report

    def run_cycles(self, count: int,
                   fast_forward: bool = False) -> list[CycleReport]:
        """Advance several cycles.

        With ``fast_forward=True`` the run segments at the pending-start
        cycles: each staged title still begins streaming on exactly the
        cycle its load completes, and the stretches between completions
        go through the scheduler's epoch fast-forward engine.  Pins are
        released at segment boundaries instead of every cycle — pin
        counts only matter to purge decisions, which happen inside
        :meth:`request`, never mid-run.
        """
        if not fast_forward:
            return [self.run_cycle() for _ in range(count)]
        reports: list[CycleReport] = []
        end = self.server.cycle_index + count
        while self.server.cycle_index < end:
            now = self.server.cycle_index
            self._start_due_loads()
            boundary = min((cycle for cycle, _ in self._pending_starts
                            if now < cycle < end), default=end)
            reports.extend(self.server.run_cycles(boundary - now,
                                                  fast_forward=True))
            self._release_finished_pins()
        return reports

    def _start_due_loads(self) -> None:
        """Start streams whose tape loads have completed by now."""
        now = self.server.cycle_index
        due = [(cycle, name) for cycle, name in self._pending_starts
               if cycle <= now]
        self._pending_starts = [(cycle, name)
                                for cycle, name in self._pending_starts
                                if cycle > now]
        for _cycle, name in due:
            self.stats.pending -= 1
            self._start_stream(name, staged=True)

    def _release_finished_pins(self) -> None:
        for stream_id in list(self._pinned_streams):
            stream = self.server.scheduler.streams[stream_id]
            if not stream.is_active:
                self.manager.unpin(self._pinned_streams.pop(stream_id))

    # -- convenience --------------------------------------------------------------

    @property
    def report(self) -> SimulationReport:
        """The streaming tier's simulation report."""
        return self.server.report

    def summary(self) -> str:
        """One-line front-door digest."""
        return (
            f"immediate {self.stats.started_immediately}, "
            f"after staging {self.stats.started_after_staging}, "
            f"pending {self.stats.pending}, "
            f"rejected {self.stats.rejected_capacity} capacity / "
            f"{self.stats.rejected_admission} admission; "
            f"hit rate {self.manager.hit_rate():.0%}"
        )
