"""Timed runs: a sampled exponential fault schedule on ``run_churn``.

``run_timed`` samples per-disk exponential fail/repair lifetimes into a
:class:`~repro.faults.injector.FaultSchedule` (optionally with sector
scrub passes) and runs it through the scheduler's one driver loop with
fast-forward on.  The whole stack draws randomness only from named
``RandomSource`` streams, so two runs with the same seed must agree on
*every* observable — the full serialized report, not just headline
totals — including runs whose fault storm turns catastrophic.
"""

import json
import math

import pytest

from repro.errors import ConfigurationError
from repro.experiments.harness import degraded_digest
from repro.faults.domain import SectorScrubber
from repro.faults.injector import FaultAction, FaultSchedule, cycles_before
from repro.sched import epoch
from repro.schemes import ALL_IMPLEMENTED_SCHEMES, Scheme
from tests.conftest import build_server, tiny_catalog

DISKS = {Scheme.IMPROVED_BANDWIDTH: 12}


def _state(server) -> dict:
    report = server.report
    return {
        "rows": report.to_rows(),
        "hiccups": [[h.cycle, h.stream_id, h.object_name, h.track,
                     h.cause.value] for h in report.all_hiccups()],
        "data_loss": [
            [e.cycle, list(e.failed_disks),
             {name: list(tracks)
              for name, tracks in sorted(e.lost_tracks.items())},
             list(e.shed_streams)]
            for e in report.data_loss_events
        ],
        "disks": [[d.reads, d.writes, d.failures, d.media_errors_cleared,
                   d.state.name] for d in server.array.disks],
        "redundant": server.scheduler.redundant_fault_commands,
        "digest": degraded_digest(server),
    }


def _timed_fingerprint(scheme: Scheme, num_disks: int, seed: int,
                       mttf_cycles: float, cycles: int = 40,
                       scrub_interval_cycles: float | None = None) -> str:
    server = build_server(scheme, num_disks=num_disks)
    for name in server.catalog.names():
        server.admit(name)
    cl = server.config.cycle_length_s
    server.inject_media_error(0, 0)
    server.run_timed(
        duration_s=cycles * cl,
        mttf_s=mttf_cycles * cl,
        mttr_s=3 * cl,
        seed=seed,
        scrub_interval_s=(scrub_interval_cycles * cl
                          if scrub_interval_cycles is not None else None),
    )
    actions = [event.action for event in server.last_schedule]
    scrubber = server.last_scrubber
    return json.dumps({
        **_state(server),
        "injector": [actions.count(FaultAction.FAIL),
                     actions.count(FaultAction.REPAIR)],
        "scrub": ([scrubber.passes_run, scrubber.errors_repaired]
                  if scrubber is not None else None),
    }, sort_keys=True)


def test_same_seed_is_bit_identical_sr():
    first = _timed_fingerprint(Scheme.STREAMING_RAID, 10, seed=5,
                               mttf_cycles=8)
    second = _timed_fingerprint(Scheme.STREAMING_RAID, 10, seed=5,
                                mttf_cycles=8)
    assert first == second
    assert json.loads(first)["injector"][0] > 0  # faults actually struck


def test_same_seed_is_bit_identical_ib():
    first = _timed_fingerprint(Scheme.IMPROVED_BANDWIDTH, 12, seed=9,
                               mttf_cycles=8)
    second = _timed_fingerprint(Scheme.IMPROVED_BANDWIDTH, 12, seed=9,
                                mttf_cycles=8)
    assert first == second


def test_different_seeds_diverge():
    baseline = _timed_fingerprint(Scheme.STREAMING_RAID, 10, seed=5,
                                  mttf_cycles=8)
    other = _timed_fingerprint(Scheme.STREAMING_RAID, 10, seed=6,
                               mttf_cycles=8)
    assert baseline != other


def test_catastrophic_storm_replays_bit_identically():
    # MTTF of two cycles with a three-cycle MTTR keeps several disks down
    # at once, so double failures (and data-loss accounting) occur.
    first = _timed_fingerprint(Scheme.STREAMING_RAID, 10, seed=11,
                               mttf_cycles=2, cycles=60)
    second = _timed_fingerprint(Scheme.STREAMING_RAID, 10, seed=11,
                                mttf_cycles=2, cycles=60)
    assert first == second
    decoded = json.loads(first)
    assert decoded["data_loss"], "storm was expected to lose data"


def test_scrubber_process_is_deterministic_and_repairs():
    first = _timed_fingerprint(Scheme.STREAMING_RAID, 10, seed=5,
                               mttf_cycles=1e9, scrub_interval_cycles=2)
    second = _timed_fingerprint(Scheme.STREAMING_RAID, 10, seed=5,
                                mttf_cycles=1e9, scrub_interval_cycles=2)
    assert first == second
    passes, repaired = json.loads(first)["scrub"]
    assert passes > 0
    assert repaired >= 1  # the pre-planted latent error got patrolled


def _loaded(scheme: Scheme):
    """Four long titles, all admitted, in metadata mode."""
    server = build_server(scheme, num_disks=DISKS.get(scheme, 10),
                          catalog=tiny_catalog(4, tracks=240),
                          verify_payloads=False)
    for name in server.catalog.names():
        server.admit(name)
    return server


@pytest.mark.parametrize("scheme", ALL_IMPLEMENTED_SCHEMES,
                         ids=lambda s: s.value)
def test_run_timed_is_its_schedule_on_the_scalar_loop(scheme: Scheme):
    # The same sampled schedule through the scalar loop, plus the
    # trailing events applied at the end, reproduces the timed run; the
    # timed run rode the epoch engine to get there.
    timed = _loaded(scheme)
    cl = timed.config.cycle_length_s
    timed.run_timed(duration_s=80.9 * cl, mttf_s=150 * cl, mttr_s=8 * cl,
                    seed=16)
    schedule = timed.last_schedule
    assert any(event.action is FaultAction.FAIL for event in schedule)
    assert any(event.cycle == 81 for event in schedule)  # trailing
    scalar = _loaded(scheme)
    scalar.run_with_schedule(81, schedule, fast_forward=False)
    schedule.apply(scalar.scheduler, 81)
    assert _state(timed) == _state(scalar)
    assert timed.report.ff_engaged_cycles > 0
    assert scalar.report.ff_engaged_cycles == 0


@pytest.mark.parametrize("mttf_cycles", [40, 400])
@pytest.mark.parametrize("scheme", ALL_IMPLEMENTED_SCHEMES,
                         ids=lambda s: s.value)
def test_scrub_patrol_crosses_epochs(scheme: Scheme, mttf_cycles: int):
    # A pass at every top and a planted latent error, under dense and
    # sparse faults: the timed run equals the scalar loop stopped at each
    # pass top for one scrubber step, plus the trailing events.
    timed = _loaded(scheme)
    timed.inject_media_error(0, 0)
    cl = timed.config.cycle_length_s
    duration = 60.5 * cl
    timed.run_timed(duration_s=duration, mttf_s=mttf_cycles * cl,
                    mttr_s=8 * cl, seed=5, scrub_interval_s=cl)
    if mttf_cycles == 400:
        assert timed.report.ff_engaged_cycles > 0  # epochs crossed passes
    end = cycles_before(duration, cl)
    reference = _loaded(scheme)
    reference.inject_media_error(0, 0)
    schedule = FaultSchedule(timed.last_schedule)  # its events, no patrol
    scrubber = SectorScrubber(reference.array)
    for index in range(1, math.floor(duration / cl) + 1):
        top = cycles_before(index * cl, cl)
        reference.run_with_schedule(top - reference.cycle_index, schedule,
                                    fast_forward=False)
        scrubber.step()
    reference.run_with_schedule(end - reference.cycle_index, schedule,
                                fast_forward=False)
    schedule.apply(reference.scheduler, end)
    assert _state(timed) == _state(reference)
    patrol = timed.last_scrubber
    assert (patrol.passes_run, patrol.errors_repaired) \
        == (scrubber.passes_run, scrubber.errors_repaired) == (60, 1)


@pytest.mark.parametrize("scheme", ALL_IMPLEMENTED_SCHEMES,
                         ids=lambda s: s.value)
def test_scrub_passes_do_not_split_epochs(scheme: Scheme, monkeypatch):
    entries: list[int] = []
    run = epoch.run

    def counted(sched, *args):
        # Only the entries the engine accepts: a refused one (NC's
        # degraded veto, pending state) runs its cycle scalar.
        if sched._ff_classify() is None:
            entries.append(sched.cycle_index)
        return run(sched, *args)

    monkeypatch.setattr(epoch, "run", counted)
    server = _loaded(scheme)
    cl = server.config.cycle_length_s
    server.run_timed(duration_s=60.5 * cl, mttf_s=400 * cl, mttr_s=8 * cl,
                     seed=5, scrub_interval_s=cl)
    assert server.last_scrubber.passes_run == 60
    # At most an entry per window between fault events and a re-entry
    # after a bail, not one per pass.
    assert len(entries) <= 2 * (len(server.last_schedule) + 1)


def test_a_patrol_of_another_array_raises():
    server = build_server(Scheme.STREAMING_RAID, num_disks=10)
    other = build_server(Scheme.STREAMING_RAID, num_disks=10)
    schedule = FaultSchedule((), (SectorScrubber(other.array), [0, 1]))
    with pytest.raises(ConfigurationError, match="another array"):
        server.run_with_schedule(2, schedule)
    assert schedule.scrubber.passes_run == 0
    assert server.cycle_index == 0


def test_scrub_passes_run_before_the_faults_at_their_top(monkeypatch):
    log: list[tuple[str, int]] = []
    step, apply = SectorScrubber.step, FaultSchedule.apply

    def logged_step(scrubber):
        log.append(("pass", server.cycle_index))
        return step(scrubber)

    def logged_apply(schedule, scheduler, cycle):
        due = apply(schedule, scheduler, cycle)
        if due:
            log.append(("faults", cycle))
        return due

    monkeypatch.setattr(SectorScrubber, "step", logged_step)
    monkeypatch.setattr(FaultSchedule, "apply", logged_apply)
    server = build_server(Scheme.STREAMING_RAID, num_disks=10)
    for name in server.catalog.names():
        server.admit(name)
    cl = server.config.cycle_length_s
    duration, interval = 40.5 * cl, 2.5 * cl
    server.run_timed(duration_s=duration, mttf_s=3 * cl, mttr_s=2 * cl,
                     seed=2, scrub_interval_s=interval)
    passes = math.floor(duration / interval)
    assert server.last_scrubber.passes_run == passes == 16
    tops = [top for kind, top in log if kind == "pass"]
    assert tops == [cycles_before(index * interval, cl)
                    for index in range(1, passes + 1)]
    shared = [top for top in tops if ("faults", top) in log]
    assert shared, "no pass shared a cycle top with faults"
    for top in shared:
        assert log.index(("pass", top)) < log.index(("faults", top))
    assert len(server.report.cycles) == 41


def test_run_timed_validates_horizon_and_scrub_period():
    server = build_server(Scheme.STREAMING_RAID, num_disks=10)
    with pytest.raises(ValueError, match="negative duration"):
        server.run_timed(duration_s=-1.0)
    for period in (0.0, -2.0):
        with pytest.raises(ValueError, match="scrub period"):
            server.run_timed(duration_s=1.0, scrub_interval_s=period)
    assert server.cycle_index == 0
    server.run_timed(duration_s=0.0)
    assert server.cycle_index == 0
    assert len(server.last_schedule) == 0
