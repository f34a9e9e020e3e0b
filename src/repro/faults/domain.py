"""Fault-domain helpers: fail-slow calibration and latent-error scrubbing.

The fault-domain state machine itself lives on the disks
(:class:`~repro.disk.drive.Disk` moves through ``OPERATIONAL``,
``DEGRADED``, ``FAILED`` and ``REBUILDING``); this module supplies the
two pieces that sit *around* it:

* :func:`degraded_service_fraction` translates a physical fail-slow
  factor ("this drive's track time is 2x nominal") into the fraction of
  its cycle slot budget that survives, via the same
  :class:`~repro.disk.model.SimpleDiskModel` track-time arithmetic the
  admission analysis uses.  Schedulers apply the fraction through
  :meth:`~repro.disk.drive.Disk.effective_slots`.
* :class:`SectorScrubber` walks the latent sector errors of the disks
  the array's fault index lists, in a deterministic order, and repairs
  a bounded number per pass — the background patrol that keeps a latent
  error from surviving long enough to meet a disk failure in the same
  parity group.  A :class:`~repro.faults.injector.FaultSchedule`'s
  patrol runs :meth:`SectorScrubber.step` at each pass's cycle top (every
  top in chaos, every scrub interval in ``run_timed``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.disk.drive import DiskArray

from repro.disk.model import SimpleDiskModel
from repro.disk.specs import DiskSpec


def degraded_service_fraction(spec: DiskSpec, cycle_length_s: float,
                              slowdown: float) -> float:
    """The slot-budget fraction a fail-slow disk retains.

    A disk whose track time stretched by ``slowdown`` (>= 1) serves
    ``tracks_per_cycle_degraded / tracks_per_cycle`` of its nominal
    per-cycle track budget.  Returns a float in ``[0, 1]``; ``0.0`` when
    the nominal budget is already zero.

    >>> from repro.disk.specs import DiskSpec
    >>> spec = DiskSpec(name="d", seek_time_s=0.02, track_time_s=0.015,
    ...                 track_size_mb=0.064, capacity_mb=256.0)
    >>> degraded_service_fraction(spec, 1.0, 1.0)
    1.0
    >>> 0.0 < degraded_service_fraction(spec, 1.0, 2.0) <= 0.51
    True
    """
    model = SimpleDiskModel(spec)
    base = model.tracks_per_cycle(cycle_length_s)
    if base <= 0:
        return 0.0
    slow = model.tracks_per_cycle_degraded(cycle_length_s, slowdown)
    fraction = slow / base
    return max(0.0, min(1.0, fraction))


class SectorScrubber:
    """Background patrol repairing latent sector errors, a few per pass.

    The scrub order is deterministic — ascending ``(disk_id, position)``
    over the non-failed disks' currently pending media errors — so
    replaying a fault script reproduces the exact same repair sequence.
    """

    __slots__ = ("array", "tracks_per_pass", "passes_run",
                 "errors_repaired")

    def __init__(self, array: "DiskArray",
                 tracks_per_pass: int = 1) -> None:
        if tracks_per_pass < 1:
            raise ValueError("scrubber must repair at least one track/pass")
        self.array = array
        self.tracks_per_pass = tracks_per_pass
        self.passes_run = 0
        self.errors_repaired = 0

    def pending(self) -> list[tuple[int, int]]:
        """All ``(disk_id, position)`` pairs still awaiting a scrub.

        Only the drives the array's fault index files under media errors
        are visited; failed ones wait for their rebuild.
        """
        faults = self.array.faults
        disks = self.array.disks
        return [(disk_id, position)
                for disk_id in sorted(faults.media - faults.failed)
                for position in disks[disk_id].media_error_positions()]

    def step(self) -> int:
        """Run one scrub pass; returns the number of errors repaired."""
        self.passes_run += 1
        repaired = 0
        for disk_id, position in self.pending()[:self.tracks_per_pass]:
            if self.array[disk_id].scrub(position):
                repaired += 1
        self.errors_repaired += repaired
        return repaired

    def advance_idle(self, passes: int) -> None:
        """Credit ``passes`` patrol passes that found nothing to scrub.

        With nothing pending a pass only bumps the counter (the patrol
        keeps no cursor), so an epoch, which never runs with a media
        error, credits the passes it crossed in bulk.
        """
        if passes < 0:
            raise ValueError("cannot credit a negative number of passes")
        self.passes_run += passes
