"""SimulationReport merge: exact totals across shards."""

from __future__ import annotations

from repro.server.metrics import (CycleReport, DataLossEvent, HiccupCause,
                                  HiccupRecord, SimulationReport)


def cycle(index: int, delivered: int = 0, hiccups: int = 0,
          parity: int = 0, buffered: int = 0, shed: int = 0) -> CycleReport:
    report = CycleReport(cycle=index)
    report.reads_planned = delivered + hiccups
    report.reads_executed = delivered
    report.tracks_delivered = delivered
    report.parity_reads = parity
    report.buffered_tracks = buffered
    report.streams_shed = shed
    report.hiccups = [
        HiccupRecord(cycle=index, stream_id=i, object_name="m0", track=i,
                     cause=HiccupCause.DISK_FAILURE)
        for i in range(hiccups)
    ]
    return report


def build(cycles: list[CycleReport]) -> SimulationReport:
    report = SimulationReport()
    for cycle_report in cycles:
        report.record(cycle_report)
    return report


def test_merge_of_empty_reports_is_empty() -> None:
    merged = SimulationReport().merge(SimulationReport())
    assert merged.cycles == []
    assert merged.total_delivered == 0
    assert merged.total_hiccups == 0


def test_merge_with_empty_keeps_singleton_totals() -> None:
    lone = build([cycle(0, delivered=7, hiccups=2, parity=3)])
    for merged in (lone.merge(SimulationReport()),
                   SimulationReport().merge(lone)):
        assert merged.total_delivered == 7
        assert merged.total_hiccups == 2
        assert merged.total_parity_reads == 3
        assert [c.cycle for c in merged.cycles] == [0]


def test_merge_sums_totals_and_interleaves_cycles() -> None:
    left = build([cycle(0, delivered=5, buffered=8),
                  cycle(2, delivered=1, hiccups=1)])
    right = build([cycle(1, delivered=4, parity=2, buffered=3),
                   cycle(2, delivered=3)])
    merged = left.merge(right)
    assert merged.total_delivered == 13
    assert merged.total_hiccups == 1
    assert merged.total_parity_reads == 2
    assert merged.hiccups_by_cause() == {HiccupCause.DISK_FAILURE: 1}
    # Shards share no buffers: the merged peak is the larger peak.
    assert merged.peak_buffered_tracks == 8
    # Server-cycles interleave by cycle index; equal indices both kept.
    assert [c.cycle for c in merged.cycles] == [0, 1, 2, 2]


def test_merge_does_not_mutate_inputs() -> None:
    left = build([cycle(0, delivered=5)])
    right = build([cycle(1, delivered=2)])
    left_cycles = list(left.cycles)
    left.merge(right)
    assert left.cycles == left_cycles
    assert left.total_delivered == 5
    assert [c.cycle for c in right.cycles] == [1]


def test_merge_combines_loss_events_and_ff_diagnostics() -> None:
    left = build([cycle(0, shed=1)])
    left.data_loss_events.append(DataLossEvent(
        cycle=3, failed_disks=(1, 2), lost_tracks={"m0": (5,)},
        shed_streams=(9,)))
    left.ff_engaged_cycles = 10
    left.ff_disengagements = {"fault": 1}
    right = build([cycle(1)])
    right.data_loss_events.append(DataLossEvent(
        cycle=1, failed_disks=(7,), lost_tracks={}, shed_streams=()))
    right.ff_engaged_cycles = 4
    right.ff_disengagements = {"fault": 2, "arrival": 1}
    merged = left.merge(right)
    assert [e.cycle for e in merged.data_loss_events] == [1, 3]
    assert merged.total_lost_tracks == 1
    assert merged.total_streams_shed == 1
    assert merged.ff_engaged_cycles == 14
    assert merged.ff_disengagements == {"fault": 3, "arrival": 1}
