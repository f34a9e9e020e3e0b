"""Fail-slow calibration and the deterministic sector scrubber."""

import pytest

from repro.disk import DiskArray, PAPER_TABLE1_DRIVE
from repro.disk.specs import DiskSpec
from repro.faults.domain import SectorScrubber, degraded_service_fraction

SPEC = DiskSpec(name="d", seek_time_s=0.02, track_time_s=0.015,
                track_size_mb=0.064, capacity_mb=256.0)
SMALL = PAPER_TABLE1_DRIVE.with_overrides(capacity_mb=1.0)  # 20 tracks


class TestDegradedServiceFraction:
    def test_nominal_speed_keeps_full_budget(self):
        assert degraded_service_fraction(SPEC, 1.0, 1.0) == 1.0

    def test_fraction_shrinks_with_slowdown(self):
        half = degraded_service_fraction(SPEC, 1.0, 2.0)
        quarter = degraded_service_fraction(SPEC, 1.0, 4.0)
        assert 0.0 < quarter < half < 1.0
        # Doubling the track time roughly halves the surviving budget
        # (floor effects keep it from being exact).
        assert half == pytest.approx(0.5, abs=0.03)

    def test_slowdown_below_one_rejected(self):
        with pytest.raises(ValueError):
            degraded_service_fraction(SPEC, 1.0, 0.5)

    def test_zero_base_budget_is_zero_fraction(self):
        # A cycle shorter than the seek penalty serves no tracks at all.
        assert degraded_service_fraction(SPEC, 0.02, 2.0) == 0.0


class TestSectorScrubber:
    def test_tracks_per_pass_must_be_positive(self):
        with pytest.raises(ValueError):
            SectorScrubber(DiskArray(2, SMALL), tracks_per_pass=0)

    def test_pending_is_sorted_and_skips_failed_disks(self):
        array = DiskArray(3, SMALL)
        array[2].inject_media_error(5)
        array[0].inject_media_error(3)
        array[0].inject_media_error(1, transient=True)
        array[1].inject_media_error(4)
        array.fail(1)
        scrubber = SectorScrubber(array)
        assert scrubber.pending() == [(0, 1), (0, 3), (2, 5)]

    def test_step_repairs_bounded_batch_in_order(self):
        array = DiskArray(3, SMALL)
        for disk_id, position in [(2, 5), (0, 3), (0, 1)]:
            array[disk_id].inject_media_error(position)
        scrubber = SectorScrubber(array, tracks_per_pass=2)
        assert scrubber.step() == 2
        assert scrubber.pending() == [(2, 5)]
        assert scrubber.step() == 1
        assert scrubber.step() == 0
        assert scrubber.passes_run == 3
        assert scrubber.errors_repaired == 3
        assert array.media_error_count == 0
