"""Per-stream buffer occupancy peaks.

The paper's Figure 4 argument is entirely about *when* buffers are held:
Streaming RAID holds a whole parity group per stream at the same phase,
while the staggered scheme spreads peaks out of phase.  The system-wide
occupancy per cycle lands in each cycle's report
(:meth:`~repro.server.metrics.SimulationReport.buffer_profile`); the
tracker sums it and keeps the highest occupancy each stream reached, so
simulations can compare both with the closed-form requirements of
eq. (12)–(15).
"""

from __future__ import annotations

from typing import Iterable

from repro.server.stream import Stream


class BufferTracker:
    """Sums buffer occupancy and keeps each stream's peak."""

    def __init__(self) -> None:
        self._per_stream_peak: dict[int, int] = {}

    def sample(self, streams: Iterable[Stream], extra_tracks: int = 0) -> int:
        """Sum the current occupancy; returns tracks held.

        ``extra_tracks`` accounts for buffers held outside streams (e.g.
        the shared pool's in-use pages).
        """
        total = extra_tracks
        for stream in streams:
            held = stream.buffered_track_count
            total += held
            peak = self._per_stream_peak.get(stream.stream_id, 0)
            if held > peak:
                self._per_stream_peak[stream.stream_id] = held
        return total

    def fold_epoch(self, peaks: dict[int, int]) -> None:
        """Absorb a fast-forward epoch's peaks in one batch.

        ``peaks`` maps stream ids to the highest occupancy each reached
        during the epoch (entries that do not beat the recorded peak are
        ignored, so callers may pass raised peaks only).
        """
        per_stream = self._per_stream_peak
        for stream_id, peak in peaks.items():
            if peak > per_stream.get(stream_id, 0):
                per_stream[stream_id] = peak

    def stream_peak(self, stream_id: int) -> int:
        """Highest occupancy one stream reached."""
        return self._per_stream_peak.get(stream_id, 0)

    def stream_peaks(self, stream_ids: Iterable[int]) -> list[int]:
        """:meth:`stream_peak` of each stream, in order."""
        get = self._per_stream_peak.get
        return [get(stream_id, 0) for stream_id in stream_ids]
