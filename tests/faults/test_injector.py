"""Scripted fault schedules and injector processes on the DES kernel."""

import pytest

from repro.faults.injector import (
    ExponentialFaultInjector,
    FaultAction,
    FaultEvent,
    FaultSchedule,
)
from repro.sim import Environment, RandomSource


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


def test_injector_fails_and_repairs():
    env = Environment()
    failures, repairs = [], []
    injector = ExponentialFaultInjector(
        env, num_disks=5, mttf_s=10.0, mttr_s=1.0, rng=RandomSource(1),
        on_fail=lambda d: failures.append((env.now, d)),
        on_repair=lambda d: repairs.append((env.now, d)),
    )
    injector.start()
    env.run(until=200.0)
    assert injector.failures_injected > 0
    assert injector.repairs_completed > 0
    assert len(failures) == injector.failures_injected
    # A repair always follows its failure.
    assert injector.repairs_completed <= injector.failures_injected


def test_per_disk_streams_are_independent_and_deterministic():
    def run(seed):
        env = Environment()
        events = []
        injector = ExponentialFaultInjector(
            env, num_disks=3, mttf_s=5.0, mttr_s=0.5, rng=RandomSource(seed),
            on_fail=lambda d: events.append(("f", round(env.now, 6), d)),
            on_repair=lambda d: events.append(("r", round(env.now, 6), d)),
        )
        injector.start()
        env.run(until=50.0)
        return events

    assert run(1) == run(1)
    assert run(1) != run(2)


def test_failure_repair_alternate_per_disk():
    env = Environment()
    sequence = {d: [] for d in range(3)}
    injector = ExponentialFaultInjector(
        env, num_disks=3, mttf_s=2.0, mttr_s=0.5, rng=RandomSource(3),
        on_fail=lambda d: sequence[d].append("f"),
        on_repair=lambda d: sequence[d].append("r"),
    )
    injector.start()
    env.run(until=40.0)
    for events in sequence.values():
        for first, second in zip(events, events[1:]):
            assert first != second  # strictly alternating


def test_validation():
    env = Environment()
    with pytest.raises(ValueError):
        ExponentialFaultInjector(env, 3, mttf_s=0.0, mttr_s=1.0,
                                 rng=RandomSource(0),
                                 on_fail=lambda d: None,
                                 on_repair=lambda d: None)
