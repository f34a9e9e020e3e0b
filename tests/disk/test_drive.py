"""Simulated drives and the disk array."""

import pytest

from repro.disk import Disk, DiskArray, DiskState, PAPER_TABLE1_DRIVE
from repro.errors import (
    DiskFailedError,
    FaultStateError,
    LayoutError,
    MediaReadError,
)

SMALL = PAPER_TABLE1_DRIVE.with_overrides(capacity_mb=1.0)  # 20 tracks


@pytest.fixture
def disk():
    return Disk(0, SMALL)


class TestDisk:
    def test_new_disk_is_operational_and_empty(self, disk):
        assert disk.state is DiskState.OPERATIONAL
        assert not disk.is_failed
        assert disk.stored_tracks == 0

    def test_write_then_read_roundtrip(self, disk):
        disk.write(3, b"payload")
        assert disk.read(3) == b"payload"

    def test_read_unwritten_position_is_layout_error(self, disk):
        with pytest.raises(LayoutError):
            disk.read(5)

    def test_write_beyond_capacity_rejected(self, disk):
        with pytest.raises(LayoutError):
            disk.write(SMALL.tracks_per_disk, b"x")

    def test_write_meta_marks_every_position(self, disk):
        disk.write_meta([4, 1, 7])
        assert sorted(disk.positions()) == [1, 4, 7]
        assert disk.writes == 3

    def test_write_meta_beyond_capacity_writes_nothing(self, disk):
        with pytest.raises(LayoutError):
            disk.write_meta([0, SMALL.tracks_per_disk, 3])
        assert disk.stored_tracks == 0 and disk.writes == 0

    def test_negative_position_rejected(self, disk):
        with pytest.raises(LayoutError):
            disk.write(-1, b"x")

    def test_read_from_failed_disk_raises(self, disk):
        disk.write(0, b"x")
        disk.fail()
        with pytest.raises(DiskFailedError):
            disk.read(0)

    def test_repair_restores_contents(self, disk):
        disk.write(0, b"x")
        disk.fail()
        disk.repair()
        assert disk.read(0) == b"x"

    def test_erase_simulates_blank_spare(self, disk):
        disk.write(0, b"x")
        disk.erase()
        assert disk.stored_tracks == 0

    def test_failure_counter(self, disk):
        disk.fail()
        disk.fail()  # idempotent while down
        assert disk.failures == 1
        disk.repair()
        disk.fail()
        assert disk.failures == 2

    def test_read_write_counters(self, disk):
        disk.write(0, b"x")
        disk.write(1, b"y")
        disk.read(0)
        assert disk.writes == 2
        assert disk.reads == 1

    def test_negative_disk_id_rejected(self):
        with pytest.raises(ValueError):
            Disk(-1, SMALL)

    def test_write_stores_copy(self, disk):
        payload = bytearray(b"abc")
        disk.write(0, bytes(payload))
        payload[0] = 0
        assert disk.read(0) == b"abc"


class TestFaultDomainStateMachine:
    def test_degrade_enters_fail_slow(self, disk):
        before = disk.state_changes
        disk.degrade(0.5)
        assert disk.state is DiskState.DEGRADED
        assert disk.service_fraction == pytest.approx(0.5)
        assert not disk.is_failed
        assert disk.state_changes == before + 1

    def test_degrade_to_full_fraction_stays_operational(self, disk):
        disk.degrade(1.0)
        assert disk.state is DiskState.OPERATIONAL

    def test_degrade_rejects_out_of_range_fraction(self, disk):
        with pytest.raises(ValueError):
            disk.degrade(1.5)
        with pytest.raises(ValueError):
            disk.degrade(-0.1)

    def test_degrade_failed_disk_is_illegal(self, disk):
        disk.fail()
        with pytest.raises(FaultStateError):
            disk.degrade(0.5)

    def test_restore_leaves_fail_slow(self, disk):
        disk.degrade(0.25)
        disk.restore()
        assert disk.state is DiskState.OPERATIONAL
        assert disk.service_fraction == pytest.approx(1.0)

    def test_restore_operational_disk_is_silent_noop(self, disk):
        before = disk.state_changes
        disk.restore()
        assert disk.state_changes == before

    def test_restore_failed_disk_is_illegal(self, disk):
        disk.fail()
        with pytest.raises(FaultStateError):
            disk.restore()

    def test_rebuild_transition_keeps_disk_unreadable(self, disk):
        disk.write(0, b"x")
        disk.fail()
        disk.begin_rebuild()
        assert disk.state is DiskState.REBUILDING
        assert disk.is_failed
        with pytest.raises(DiskFailedError):
            disk.read(0)
        disk.repair()
        assert disk.state is DiskState.OPERATIONAL
        assert disk.read(0) == b"x"

    def test_rebuild_requires_a_failed_disk(self, disk):
        with pytest.raises(FaultStateError):
            disk.begin_rebuild()
        disk.degrade(0.5)
        with pytest.raises(FaultStateError):
            disk.begin_rebuild()

    def test_repair_clears_throttle_and_media_errors(self, disk):
        disk.write(0, b"x")
        disk.degrade(0.5)
        disk.inject_media_error(0)
        disk.repair()
        assert disk.service_fraction == pytest.approx(1.0)
        assert not disk.has_media_errors
        assert disk.read(0) == b"x"

    def test_effective_slots_scale_with_service_fraction(self, disk):
        assert disk.effective_slots(8) == 8
        disk.degrade(0.5)
        assert disk.effective_slots(8) == 4
        disk.degrade(0.01)
        # A degraded drive still serves at least one track per cycle.
        assert disk.effective_slots(8) == 1


class TestMediaErrors:
    def test_latent_error_fails_until_scrubbed(self, disk):
        disk.write(4, b"x")
        disk.inject_media_error(4)
        for _ in range(2):
            with pytest.raises(MediaReadError) as excinfo:
                disk.read(4)
            assert not excinfo.value.transient
            assert excinfo.value.position == 4
        assert disk.scrub(4)
        assert disk.read(4) == b"x"
        assert disk.media_errors_cleared == 1

    def test_transient_error_clears_on_first_attempt(self, disk):
        disk.write(4, b"x")
        disk.inject_media_error(4, transient=True)
        with pytest.raises(MediaReadError) as excinfo:
            disk.read(4)
        assert excinfo.value.transient
        assert disk.read(4) == b"x"
        assert disk.media_errors_cleared == 1

    def test_rewrite_remaps_the_bad_sector(self, disk):
        disk.write(4, b"x")
        disk.inject_media_error(4)
        disk.write(4, b"y")
        assert disk.read(4) == b"y"
        assert disk.media_errors_cleared == 1

    def test_scrub_clean_position_reports_nothing(self, disk):
        assert not disk.scrub(4)
        assert disk.media_errors_cleared == 0

    def test_positions_listed_ascending(self, disk):
        for position in (9, 2, 5):
            disk.inject_media_error(position)
        assert disk.media_error_positions() == [2, 5, 9]
        assert disk.has_media_errors
        assert disk.media_errors_injected == 3

    def test_inject_beyond_capacity_rejected(self, disk):
        with pytest.raises(LayoutError):
            disk.inject_media_error(SMALL.tracks_per_disk)

    def test_injection_bumps_the_state_epoch(self, disk):
        before = disk.state_changes
        disk.inject_media_error(0)
        assert disk.state_changes == before + 1


class TestDiskArray:
    def test_array_has_requested_size(self):
        array = DiskArray(10, SMALL)
        assert len(array) == 10
        assert array.operational_count == 10

    def test_indexing_and_iteration(self):
        array = DiskArray(4, SMALL)
        assert array[2].disk_id == 2
        assert [d.disk_id for d in array] == [0, 1, 2, 3]

    def test_bad_index_rejected(self):
        array = DiskArray(4, SMALL)
        with pytest.raises(LayoutError):
            array[4]
        with pytest.raises(LayoutError):
            array[-1]

    def test_fail_and_repair_tracking(self):
        array = DiskArray(6, SMALL)
        array.fail(2)
        array.fail(5)
        assert array.failed_ids == [2, 5]
        assert array.operational_count == 4
        array.repair(2)
        assert array.failed_ids == [5]

    def test_total_capacity(self):
        array = DiskArray(10, SMALL)
        assert array.total_capacity_mb() == pytest.approx(10.0)

    def test_zero_disks_rejected(self):
        with pytest.raises(ValueError):
            DiskArray(0, SMALL)

    def test_degraded_ids_and_restore(self):
        array = DiskArray(5, SMALL)
        array.degrade(3, 0.5)
        array.degrade(1, 0.25)
        assert array.degraded_ids == [1, 3]
        array.restore(3)
        assert array.degraded_ids == [1]

    def test_media_error_count_spans_drives(self):
        array = DiskArray(4, SMALL)
        array[0].inject_media_error(1)
        array[2].inject_media_error(7, transient=True)
        assert array.media_error_count == 2

    def test_state_epoch_moves_on_fault_domain_transitions(self):
        array = DiskArray(3, SMALL)
        epoch = array.state_epoch
        array.degrade(0, 0.5)
        assert array.state_epoch > epoch
        epoch = array.state_epoch
        array[1].inject_media_error(2)
        assert array.state_epoch > epoch
