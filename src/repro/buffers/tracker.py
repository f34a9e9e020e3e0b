"""System-wide buffer occupancy tracking.

The paper's Figure 4 argument is entirely about *when* buffers are held:
Streaming RAID holds a whole parity group per stream at the same phase,
while the staggered scheme spreads peaks out of phase.  The tracker samples
occupancy every cycle so simulations can measure those profiles and compare
them with the closed-form requirements of eq. (12)–(15).
"""

from __future__ import annotations

from typing import Iterable

from repro.server.stream import Stream


class BufferTracker:
    """Samples and aggregates buffer occupancy over a run."""

    def __init__(self, track_size_mb: float) -> None:
        if track_size_mb <= 0:
            raise ValueError(f"track size must be positive: {track_size_mb}")
        self.track_size_mb = track_size_mb
        self._samples: list[int] = []
        self._per_stream_peak: dict[int, int] = {}

    def sample(self, streams: Iterable[Stream], extra_tracks: int = 0) -> int:
        """Record the current occupancy; returns tracks held.

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
        self._samples.append(total)
        return total

    def fold_epoch(self, samples: Iterable[int],
                   peaks: dict[int, int]) -> None:
        """Absorb a fast-forward epoch in one batch.

        ``samples`` are the epoch's per-cycle occupancy totals in cycle
        order; ``peaks`` maps stream ids to the highest occupancy each
        reached during the epoch (entries that do not beat the recorded
        peak are ignored, so callers may pass raised peaks only).
        """
        self._samples.extend(samples)
        per_stream = self._per_stream_peak
        for stream_id, peak in peaks.items():
            if peak > per_stream.get(stream_id, 0):
                per_stream[stream_id] = peak

    @property
    def samples(self) -> list[int]:
        """Occupancy per sampled cycle, in tracks."""
        return list(self._samples)

    @property
    def peak_tracks(self) -> int:
        """Highest sampled occupancy."""
        return max(self._samples, default=0)

    @property
    def peak_mb(self) -> float:
        """Highest sampled occupancy in MB."""
        return self.peak_tracks * self.track_size_mb

    def stream_peak(self, stream_id: int) -> int:
        """Highest occupancy one stream reached."""
        return self._per_stream_peak.get(stream_id, 0)

    def mean_tracks(self) -> float:
        """Average occupancy over the sampled cycles."""
        if not self._samples:
            return 0.0
        return sum(self._samples) / len(self._samples)
