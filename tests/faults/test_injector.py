"""Scripted fault schedules and the exponential lifetime sampler."""

import pytest

from repro.faults.injector import (
    FaultAction,
    FaultEvent,
    FaultSchedule,
    cycles_before,
)
from repro.sim import RandomSource


class TestFaultEventValidation:
    def test_negative_cycle_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(-1, 0)

    def test_negative_disk_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(0, -2)

    def test_degrade_needs_real_slowdown(self):
        with pytest.raises(ValueError):
            FaultEvent(0, 1, FaultAction.DEGRADE)
        with pytest.raises(ValueError):
            FaultEvent(0, 1, FaultAction.DEGRADE, slowdown=1.0)
        FaultEvent(0, 1, FaultAction.DEGRADE, slowdown=1.5)

    def test_media_error_needs_position(self):
        with pytest.raises(ValueError):
            FaultEvent(0, 1, FaultAction.MEDIA_ERROR)
        FaultEvent(0, 1, FaultAction.MEDIA_ERROR, position=3)


class TestFaultSchedule:
    def test_events_indexed_by_cycle(self):
        schedule = FaultSchedule([
            FaultEvent(4, 0),
            FaultEvent(2, 1),
            FaultEvent(4, 1, FaultAction.REPAIR),
        ])
        assert len(schedule) == 3
        assert [e.cycle for e in schedule] == [2, 4, 4]
        assert schedule.events_before_cycle(3) == []
        assert len(schedule.events_before_cycle(4)) == 2

    def test_within_cycle_script_order_is_preserved(self):
        # "repair then degrade" on the same disk in the same cycle is
        # legal; sorting by anything beyond the cycle would reorder it
        # ("degrade" < "repair" alphabetically) and break the script.
        repair = FaultEvent(3, 0, FaultAction.REPAIR)
        degrade = FaultEvent(3, 0, FaultAction.DEGRADE, slowdown=2.0)
        schedule = FaultSchedule([repair, degrade])
        assert schedule.events_before_cycle(3) == [repair, degrade]

    def test_single_failure_factory_validates_ordering(self):
        with pytest.raises(ValueError):
            FaultSchedule.single_failure(5, 0, repair_cycle=5)
        schedule = FaultSchedule.single_failure(1, 2, repair_cycle=4)
        assert [e.action for e in schedule] == [FaultAction.FAIL,
                                                FaultAction.REPAIR]

    @pytest.mark.parametrize("events, cycle, end, expected", [
        pytest.param([], 3, 10, 10, id="no-events"),
        pytest.param([FaultEvent(6, 0)], 3, 10, 6, id="next-event"),
        pytest.param([FaultEvent(6, 0, mid_cycle=True)], 3, 10, 5,
                     id="mid-cycle-strike"),
        pytest.param([FaultEvent(10, 0, mid_cycle=True)], 3, 10, 9,
                     id="mid-cycle-strike-at-end"),
        pytest.param([FaultEvent(4, 0, mid_cycle=True)], 3, 10, 3,
                     id="mid-cycle-strike-next-cycle"),
        pytest.param([FaultEvent(2, 0), FaultEvent(3, 1, mid_cycle=True)],
                     3, 10, 10, id="past-events-ignored"),
        pytest.param([FaultEvent(6, 0, FaultAction.REPAIR, mid_cycle=True)],
                     3, 10, 6, id="mid-cycle-non-fail"),
    ])
    def test_epoch_end(self, events, cycle, end, expected):
        assert FaultSchedule(events).epoch_end(cycle, end) == expected

    def test_apply_dispatches_every_action(self):
        class Recorder:
            def __init__(self):
                self.calls = []

            def fail_disk(self, disk_id, mid_cycle=False):
                self.calls.append(("fail", disk_id, mid_cycle))

            def repair_disk(self, disk_id):
                self.calls.append(("repair", disk_id))

            def degrade_disk(self, disk_id, slowdown):
                self.calls.append(("degrade", disk_id, slowdown))

            def restore_disk(self, disk_id):
                self.calls.append(("restore", disk_id))

            def inject_media_error(self, disk_id, position, transient=False):
                self.calls.append(("media", disk_id, position, transient))

        schedule = FaultSchedule([
            FaultEvent(1, 0, FaultAction.FAIL, mid_cycle=True),
            FaultEvent(1, 1, FaultAction.DEGRADE, slowdown=2.0),
            FaultEvent(1, 2, FaultAction.MEDIA_ERROR, position=7,
                       transient=True),
            FaultEvent(1, 1, FaultAction.RESTORE),
            FaultEvent(1, 0, FaultAction.REPAIR),
            FaultEvent(2, 3, FaultAction.FAIL),
        ])
        recorder = Recorder()
        due = schedule.apply(recorder, 1)
        assert len(due) == 5
        assert recorder.calls == [
            ("fail", 0, True),
            ("degrade", 1, 2.0),
            ("media", 2, 7, True),
            ("restore", 1),
            ("repair", 0),
        ]


def sample(num_disks=5, mttf_s=10.0, mttr_s=1.0, horizon_s=200.0,
           seed=1, cycle_length_s=1.0, first_cycle=0):
    return FaultSchedule.exponential(
        num_disks, mttf_s, mttr_s, cycle_length_s, horizon_s,
        RandomSource(seed), first_cycle=first_cycle)


def actions_per_disk(schedule):
    sequence = {}
    for event in schedule:
        sequence.setdefault(event.disk_id, []).append(event.action)
    return sequence


def test_injector_fails_and_repairs():
    actions = [event.action for event in sample()]
    failures = actions.count(FaultAction.FAIL)
    repairs = actions.count(FaultAction.REPAIR)
    assert failures > 0
    assert repairs > 0
    assert failures + repairs == len(actions)
    # A repair always follows its failure.
    assert repairs <= failures


def test_per_disk_streams_are_independent_and_deterministic():
    def run(seed):
        return list(sample(num_disks=3, mttf_s=5.0, mttr_s=0.5,
                           horizon_s=50.0, seed=seed))

    assert run(1) == run(1)
    assert run(1) != run(2)


def test_failure_repair_alternate_per_disk():
    schedule = sample(num_disks=3, mttf_s=2.0, mttr_s=0.5, horizon_s=40.0,
                      seed=3)
    for actions in actions_per_disk(schedule).values():
        assert actions[0] is FaultAction.FAIL
        for first, second in zip(actions, actions[1:]):
            assert first is not second  # strictly alternating


def test_validation():
    with pytest.raises(ValueError):
        sample(mttf_s=0.0)
    with pytest.raises(ValueError):
        sample(mttr_s=-1.0)
    with pytest.raises(ValueError):
        sample(cycle_length_s=0.0)


def test_adding_disks_never_moves_existing_events():
    small = sample(num_disks=3, mttf_s=4.0, horizon_s=60.0, seed=8)
    large = sample(num_disks=7, mttf_s=4.0, horizon_s=60.0, seed=8)
    assert [e for e in large if e.disk_id < 3] == list(small)


def test_events_land_at_first_cycle_top_at_or_after_them():
    # Replay the per-disk draws by hand: each event strikes the top of
    # the first cycle that starts at or after it, offset by first_cycle,
    # and a cycle's events keep time order.
    cycle_length, horizon = 0.7, 30.0
    schedule = sample(num_disks=4, mttf_s=3.0, mttr_s=1.5,
                      horizon_s=horizon, seed=5,
                      cycle_length_s=cycle_length, first_cycle=12)
    rng = RandomSource(5)
    timed = []
    for disk in range(4):
        clock, up = 0.0, True
        while True:
            clock += rng.exponential(f"disk-{disk}", 3.0 if up else 1.5)
            if clock > horizon:
                break
            timed.append((clock, disk, FaultAction.FAIL if up
                          else FaultAction.REPAIR))
            up = not up
    timed.sort(key=lambda item: item[0])
    expected = [FaultEvent(12 + int(time // cycle_length) + 1, disk, action)
                for time, disk, action in timed]
    assert list(schedule) == expected
    assert schedule.events_before_cycle(12) == []


@pytest.mark.parametrize("time_s, expected", [
    (0.0, 0), (0.5, 1), (1.0, 1), (1.25, 2), (3.0, 3), (3.0001, 4)])
def test_cycles_before_counts_starts_strictly_before(time_s, expected):
    assert cycles_before(time_s, 1.0) == expected
