"""Delivery metrics: hiccups, reconstructions, buffer profiles, reports.

A *hiccup* (Section 1) is a missed track at its delivery deadline.  The
metrics layer records every hiccup with its cause so tests can check the
paper's transition-loss formulas, and samples buffer occupancy each cycle
so the staggered-group memory profile (Figure 4) can be regenerated.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass, field


class HiccupCause(enum.Enum):
    """Why a track missed its delivery deadline."""

    DISK_FAILURE = "disk-failure"          # data was on a failed disk
    TRANSITION = "transition"              # displaced by a degraded-mode shift
    SLOT_OVERFLOW = "slot-overflow"        # dropped: no disk slot in the cycle
    MID_CYCLE_FAILURE = "mid-cycle-failure"  # IB: failure during the read
    BUFFER_EXHAUSTED = "buffer-exhausted"  # NC: buffer pool empty
    MEDIA_ERROR = "media-error"            # latent sector error not recovered
    DATA_LOSS = "data-loss"                # track lost to a double failure


@dataclass(frozen=True)
class HiccupRecord:
    """One missed track."""

    cycle: int
    stream_id: int
    object_name: str
    track: int
    cause: HiccupCause


@dataclass(frozen=True)
class DataLossEvent:
    """A failure set crossed into data loss (MTTDS accounting).

    Recorded when a fail/repair transition changes the set of tracks that
    no surviving disk or parity block can reproduce: exactly which tracks
    of which objects are gone, and which streams were shed because their
    remaining playback crossed a lost track.  An empty ``lost_tracks``
    marks the recovery event (a repair brought every track back).
    """

    cycle: int
    failed_disks: tuple[int, ...]
    #: object name -> newly lost track numbers, ascending.
    lost_tracks: dict[str, tuple[int, ...]]
    shed_streams: tuple[int, ...]

    @property
    def total_lost_tracks(self) -> int:
        """Tracks newly lost in this event."""
        return sum(len(tracks) for tracks in self.lost_tracks.values())


@dataclass
class CycleReport:
    """What happened during one cycle."""

    cycle: int
    reads_planned: int = 0
    reads_executed: int = 0
    reads_dropped: int = 0
    parity_reads: int = 0
    tracks_delivered: int = 0
    reconstructions: int = 0
    blocks_rebuilt: int = 0
    hiccups: list[HiccupRecord] = field(default_factory=list)
    buffered_tracks: int = 0
    pool_tracks_in_use: int = 0
    streams_active: int = 0
    streams_terminated: int = 0
    media_errors: int = 0
    media_retries: int = 0
    media_reconstructions: int = 0
    media_recovery_reads: int = 0
    streams_shed: int = 0


@dataclass
class SimulationReport:
    """Accumulated results of a simulation run.

    Every :class:`CycleReport` is retained: ``cycles`` is the run's one
    per-cycle record, and every aggregate below is a fold over it.
    """

    cycles: list[CycleReport] = field(default_factory=list)
    payload_mismatches: int = 0
    #: Every crossing into (or out of) data loss, in event order.
    data_loss_events: list[DataLossEvent] = field(default_factory=list)
    #: Cycles advanced by a fast-forward engine (diagnostic; deliberately
    #: outside :meth:`to_rows`/:meth:`summary` so fast and scalar runs
    #: stay fingerprint-identical).
    ff_engaged_cycles: int = 0
    #: Why the fast path declined or bailed, reason -> event count.
    #: Event-granular, not cycle-granular: one entry per engine entry
    #: that was refused plus one per in-epoch bail.
    ff_disengagements: dict[str, int] = field(default_factory=dict)

    def record(self, cycle_report: CycleReport) -> None:
        """Append one finished cycle."""
        self.cycles.append(cycle_report)

    # -- cross-server merge ---------------------------------------------------

    def merge(self, other: "SimulationReport") -> "SimulationReport":
        """Fold two reports from *disjoint* servers into a new report.

        Built for cluster aggregation: the two servers simulated
        separate disk farms over (typically) the same cycle range, so
        the cycles interleave by cycle index (stable — ``self``'s cycle
        first on ties) and equal indices are expected, meaning
        *server-cycles* rather than wall-clock cycles.  Every additive
        ``total_*`` aggregate is the sum of the two sides', the peak
        buffer is the larger peak (shards share no buffers), and the
        fast-forward diagnostics add.  Neither input is mutated.
        """
        merged = SimulationReport(
            cycles=list(heapq.merge(self.cycles, other.cycles,
                                    key=lambda report: report.cycle)),
            payload_mismatches=(self.payload_mismatches
                                + other.payload_mismatches),
            data_loss_events=sorted(
                self.data_loss_events + other.data_loss_events,
                key=lambda event: event.cycle),
            ff_engaged_cycles=(self.ff_engaged_cycles
                               + other.ff_engaged_cycles),
        )
        for reason, count in (*self.ff_disengagements.items(),
                              *other.ff_disengagements.items()):
            merged.ff_disengagements[reason] = \
                merged.ff_disengagements.get(reason, 0) + count
        return merged

    # -- aggregates -----------------------------------------------------------

    @property
    def total_delivered(self) -> int:
        """Tracks delivered over the whole run."""
        return sum(c.tracks_delivered for c in self.cycles)

    @property
    def total_hiccups(self) -> int:
        """Missed tracks over the whole run."""
        return sum(len(c.hiccups) for c in self.cycles)

    @property
    def total_reconstructions(self) -> int:
        """Tracks rebuilt on-the-fly from parity."""
        return sum(c.reconstructions for c in self.cycles)

    @property
    def total_parity_reads(self) -> int:
        """Parity blocks fetched."""
        return sum(c.parity_reads for c in self.cycles)

    @property
    def total_dropped_reads(self) -> int:
        """Reads displaced by slot overflow."""
        return sum(c.reads_dropped for c in self.cycles)

    @property
    def total_media_errors(self) -> int:
        """Media-error read outcomes observed."""
        return sum(c.media_errors for c in self.cycles)

    @property
    def total_media_retries(self) -> int:
        """Transient media errors recovered by an in-cycle retry."""
        return sum(c.media_retries for c in self.cycles)

    @property
    def total_media_reconstructions(self) -> int:
        """Tracks recovered from latent errors via per-track parity."""
        return sum(c.media_reconstructions for c in self.cycles)

    @property
    def total_streams_shed(self) -> int:
        """Streams terminated by data loss or degraded-capacity shedding."""
        return sum(c.streams_shed for c in self.cycles)

    @property
    def total_lost_tracks(self) -> int:
        """Tracks lost across every data-loss event."""
        return sum(e.total_lost_tracks for e in self.data_loss_events)

    def all_hiccups(self) -> list[HiccupRecord]:
        """Every hiccup in cycle order."""
        return [h for c in self.cycles for h in c.hiccups]

    def hiccups_by_cause(self) -> dict[HiccupCause, int]:
        """Hiccup counts per cause."""
        counts: dict[HiccupCause, int] = {}
        for record in self.all_hiccups():
            counts[record.cause] = counts.get(record.cause, 0) + 1
        return counts

    def buffer_profile(self) -> list[tuple[int, int]]:
        """(cycle, buffered tracks) samples — Figure 4's sawtooth."""
        return [(c.cycle, c.buffered_tracks) for c in self.cycles]

    @property
    def peak_buffered_tracks(self) -> int:
        """Maximum simultaneous track buffers observed."""
        return max((c.buffered_tracks for c in self.cycles), default=0)

    def hiccup_free(self) -> bool:
        """True if no track ever missed its deadline."""
        return self.total_hiccups == 0

    def ff_residency(self) -> float:
        """Fraction of the run's cycles advanced by a fast-forward engine.

        Benchmarks and chaos campaigns assert on this instead of (only)
        wall-clock: a perf regression that silently drops the fast path
        shows up here even on machines too fast to trip a time gate.
        """
        total = len(self.cycles)
        return self.ff_engaged_cycles / total if total else 0.0

    def to_rows(self) -> list[dict[str, int]]:
        """Per-cycle metrics as flat dicts (CSV/DataFrame-friendly)."""
        return [
            {
                "cycle": c.cycle,
                "reads_planned": c.reads_planned,
                "reads_executed": c.reads_executed,
                "reads_dropped": c.reads_dropped,
                "parity_reads": c.parity_reads,
                "tracks_delivered": c.tracks_delivered,
                "reconstructions": c.reconstructions,
                "blocks_rebuilt": c.blocks_rebuilt,
                "hiccups": len(c.hiccups),
                "buffered_tracks": c.buffered_tracks,
                "pool_tracks_in_use": c.pool_tracks_in_use,
                "streams_active": c.streams_active,
                "streams_terminated": c.streams_terminated,
                "media_errors": c.media_errors,
                "media_retries": c.media_retries,
                "media_reconstructions": c.media_reconstructions,
                "media_recovery_reads": c.media_recovery_reads,
                "streams_shed": c.streams_shed,
            }
            for c in self.cycles
        ]

    def summary(self) -> str:
        """One-paragraph human-readable digest."""
        causes = ", ".join(
            f"{cause.value}: {count}"
            for cause, count in sorted(self.hiccups_by_cause().items(),
                                       key=lambda item: item[0].value)
        ) or "none"
        text = (
            f"{len(self.cycles)} cycles; delivered {self.total_delivered} "
            f"tracks; {self.total_hiccups} hiccups ({causes}); "
            f"{self.total_reconstructions} on-the-fly reconstructions; "
            f"peak buffer {self.peak_buffered_tracks} tracks"
        )
        if self.total_media_errors:
            text += (
                f"; {self.total_media_errors} media errors "
                f"({self.total_media_retries} retried, "
                f"{self.total_media_reconstructions} parity-rebuilt)"
            )
        if self.data_loss_events:
            text += (
                f"; {len(self.data_loss_events)} data-loss events "
                f"({self.total_lost_tracks} tracks lost, "
                f"{self.total_streams_shed} streams shed)"
            )
        return text
