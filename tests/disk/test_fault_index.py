"""The array's fault index against from-scratch walks (hypothesis).

Random fault command sequences run on a small farm's array, straight on
the drives (the way tests and fault scripts drive them).  After every
command, each query the index answers must equal the walk over every
drive that it replaced: the failed set, the state epoch, the service
fraction admission uses, the scrubber's pending set, and the reason the
epoch engine refuses an entry.
"""

from typing import Optional

from hypothesis import given, settings, strategies as st

from repro.disk import PAPER_TABLE1_DRIVE, DiskArray
from repro.errors import (
    DiskFailedError,
    FaultStateError,
    LayoutError,
    MediaReadError,
)
from repro.faults.chaos import build_chaos_server
from repro.faults.domain import SectorScrubber
from repro.schemes import Scheme
from repro.server.admission import fault_aware_capacity

#: The classic chaos server: 10 disks, metadata-only, Streaming RAID.
NUM_DISKS = 10

SMALL = PAPER_TABLE1_DRIVE.with_overrides(capacity_mb=1.0)  # 20 tracks

#: Commands aim at a few positions per disk, so plants get hit again.
POSITIONS = 3

COMMANDS = ("fail", "repair", "degrade", "restore", "begin_rebuild",
            "transient", "latent", "scrub", "scrub_pass", "read", "write")

commands = st.lists(
    st.tuples(st.sampled_from(COMMANDS),
              st.integers(min_value=0, max_value=NUM_DISKS - 1),
              st.integers(min_value=0, max_value=POSITIONS - 1),
              st.sampled_from([0.0, 0.25, 0.5, 1.0])),
    max_size=40)


def apply(array: DiskArray, scrubber: SectorScrubber, command: str,
          disk_id: int, position: int, fraction: float) -> None:
    """Run one command; illegal transitions are skipped, as a fault
    script's generator would never issue them."""
    disk = array[disk_id]
    try:
        if command == "fail":
            disk.fail()
        elif command == "repair":
            disk.repair()
        elif command == "degrade":
            disk.degrade(fraction)
        elif command == "restore":
            disk.restore()
        elif command == "begin_rebuild":
            disk.begin_rebuild()
        elif command in ("transient", "latent"):
            disk.inject_media_error(position,
                                    transient=command == "transient")
        elif command == "scrub":
            disk.scrub(position)
        elif command == "scrub_pass":
            scrubber.step()
        elif command == "read":
            # A planted transient error clears on this failed attempt.
            disk.read(position)
        else:
            # Rewriting a sector remaps a planted latent error.
            disk.write(position, b"")
    except (DiskFailedError, FaultStateError, LayoutError, MediaReadError):
        pass


def walked_reason(array: DiskArray) -> Optional[str]:
    """The epoch engine's fault-state refusal, by a walk in id order."""
    for disk in array:
        if disk.service_fraction < 1.0:
            return "fail-slow"
        if disk.has_media_errors:
            return "media-error"
    return None


@settings(max_examples=150, deadline=None)
@given(script=commands)
def test_fault_index_matches_a_walk_after_every_command(script):
    server = build_chaos_server(Scheme.STREAMING_RAID)
    array = server.array
    assert len(array) == NUM_DISKS
    scrubber = SectorScrubber(array, tracks_per_pass=2)
    for step in script:
        apply(array, scrubber, *step)
        assert array.failed_ids == [d.disk_id for d in array if d.is_failed]
        assert array.state_epoch == sum(d.state_changes for d in array)
        fraction = min((d.service_fraction for d in array
                        if not d.is_failed), default=0.0)
        assert array.min_service_fraction == fraction
        for base in (7, 600):
            walked = base if fraction >= 1.0 else int(base * fraction)
            assert fault_aware_capacity(base, array) == walked
        pending = sorted((d.disk_id, position) for d in array
                         if not d.is_failed
                         for position in d.media_error_positions())
        assert scrubber.pending() == pending
        assert server.scheduler._ff_classify() == walked_reason(array)


def test_index_files_each_fault_kind():
    array = DiskArray(3, SMALL, store_payloads=False)
    array.fail(2)
    array.degrade(0, 0.5)
    array[1].inject_media_error(4)
    assert (array.faults.failed, array.faults.slow,
            array.faults.media) == ({2}, {0}, {1})
    assert array.state_epoch == 3
    array.repair(2)
    array[1].scrub(4)
    assert (array.faults.failed, array.faults.slow,
            array.faults.media) == (set(), {0}, set())
    assert array.min_service_fraction == 0.5
    assert array.state_epoch == sum(d.state_changes for d in array) == 5
