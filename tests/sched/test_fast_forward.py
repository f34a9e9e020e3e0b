"""Epoch fast-forward: bit-equality against the scalar engine.

Every test builds two identical servers, drives one cycle-by-cycle and
the other with ``fast_forward=True``, and compares a full state
fingerprint — cycle reports (buffer occupancy included), per-disk read
counters, per-stream buffer peaks, every stream's pointers, buffer contents,
reconstruction credit, lost tracks and open accumulators, the
rendered summary, and the fault bookkeeping (redundant fault commands,
data-loss events).  Equality must hold whether the one epoch engine runs
healthy or degraded tables, rebuild cursors, several table steps per
cycle for fast streams (mixed rates), or bails to scalar cycles (payload
mode, transitions).
"""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.faults.injector import FaultAction, FaultEvent, FaultSchedule
from repro.sched import epoch
from repro.sched.base import MIN_EPOCH_SPAN
from repro.sched.epoch import ClosedLoop
from repro.schemes import ALL_IMPLEMENTED_SCHEMES, Scheme
from repro.server.server import MultimediaServer
from tests.conftest import build_server, tiny_catalog

#: Enough cycles to cross delivery start, steady state, and completions.
CYCLES = 30


def _scheme_server(scheme: Scheme, **kwargs: object) -> MultimediaServer:
    if scheme is Scheme.IMPROVED_BANDWIDTH:
        num_disks = 12
    elif scheme is Scheme.PARITY_DECLUSTERED:
        num_disks = 11  # prime: exact declustered design
    else:
        num_disks = 10
    kwargs.setdefault("verify_payloads", False)
    return build_server(scheme, num_disks=num_disks, **kwargs)


def _fingerprint(server: MultimediaServer,
                 reports: list) -> tuple:
    streams = tuple(
        (s.stream_id, s.status.name, s.next_read_track,
         s.next_delivery_track, s.delivery_start_cycle,
         s.delivered_tracks, s.hiccup_count, s.reconstructed_tracks,
         tuple(sorted(s.buffer)), tuple(sorted(s.parity_buffer)),
         tuple(sorted(s.lost_tracks)), tuple(sorted(s.accumulators)))
        for s in sorted(server.scheduler.streams.values(),
                        key=lambda s: s.stream_id))
    tracker = server.scheduler.tracker
    peaks = tuple(tracker.stream_peak(s.stream_id)
                  for s in sorted(server.scheduler.streams.values(),
                                  key=lambda s: s.stream_id))
    return (
        tuple(tuple(sorted(row.items())) for row in server.report.to_rows()),
        tuple(disk.reads for disk in server.array.disks),
        streams,
        peaks,
        server.scheduler.cycle_index,
        server.report.summary(),
        server.scheduler.redundant_fault_commands,
        tuple(server.report.data_loss_events),
        tuple((r.reads_executed, r.tracks_delivered, r.streams_active,
               r.streams_terminated, r.buffered_tracks) for r in reports),
    )


def _run_pair(scheme: Scheme, drive, **kwargs: object) -> tuple[tuple, tuple]:
    slow = _scheme_server(scheme, **kwargs)
    fast = _scheme_server(scheme, **kwargs)
    for name in slow.catalog.names()[:3]:
        slow.admit(name)
        fast.admit(name)
    slow_reports = drive(slow, False)
    fast_reports = drive(fast, True)
    return (_fingerprint(slow, slow_reports),
            _fingerprint(fast, fast_reports))


def _plain_run(server: MultimediaServer, fast_forward: bool) -> list:
    return server.run_cycles(CYCLES, fast_forward=fast_forward)


@pytest.mark.parametrize("scheme", ALL_IMPLEMENTED_SCHEMES,
                         ids=lambda s: s.value)
def test_fast_forward_matches_scalar(scheme: Scheme) -> None:
    slow, fast = _run_pair(scheme, _plain_run)
    assert fast == slow


#: Every scheme with a between-cycles strike (ids ``SR``...) and with a
#: mid-cycle one (``SR-mid``...), whose previous cycle must run scalar.
STRIKE_TIMINGS = [
    pytest.param(scheme, mid_cycle,
                 id=scheme.value + ("-mid" if mid_cycle else ""))
    for mid_cycle in (False, True) for scheme in ALL_IMPLEMENTED_SCHEMES]


@pytest.mark.parametrize("scheme, mid_cycle", STRIKE_TIMINGS)
def test_fast_forward_matches_scalar_through_fault(scheme: Scheme,
                                                  mid_cycle: bool) -> None:
    """A scripted fail/repair interrupts the quiescent epoch mid-stride."""
    def drive(server: MultimediaServer, fast_forward: bool) -> list:
        schedule = FaultSchedule.single_failure(8, 1, repair_cycle=20,
                                                mid_cycle=mid_cycle)
        return server.run_with_schedule(CYCLES, schedule,
                                        fast_forward=fast_forward)

    slow, fast = _run_pair(scheme, drive)
    assert fast == slow


@pytest.mark.parametrize("scheme", ALL_IMPLEMENTED_SCHEMES,
                         ids=lambda s: s.value)
def test_fast_forward_noop_in_payload_mode(scheme: Scheme) -> None:
    """Payload-verified servers silently fall back to scalar cycles."""
    slow, fast = _run_pair(scheme, _plain_run, verify_payloads=True)
    assert fast == slow


def _mixed_rate_catalog():
    """Two base-rate objects plus one MPEG-2-style rate-3 object."""
    from repro.media import MediaObject
    catalog = tiny_catalog(2, tracks=40)
    catalog.add(MediaObject("fast", 0.5625, 60, seed=99))
    return catalog


#: (scheme, NC transition protocol) pairs: every scheme once, NC twice.
MIXED_RATE_SCHEMES = [(scheme, None) for scheme in ALL_IMPLEMENTED_SCHEMES
                      if scheme is not Scheme.NON_CLUSTERED] + [
    (Scheme.NON_CLUSTERED, "lazy"), (Scheme.NON_CLUSTERED, "eager")]


@pytest.mark.parametrize(
    "scheme,protocol,drive",
    [pytest.param(scheme, protocol, drive,
                  id="-".join(filter(None, (scheme.value, protocol, drive))))
     for scheme, protocol in MIXED_RATE_SCHEMES
     for drive in ("plain", "rebuild")])
def test_fast_forward_matches_scalar_mixed_rates(
        scheme: Scheme, protocol: "str | None", drive: str) -> None:
    """A rate-3 stream takes three table steps per cycle in the epoch
    engine, fault-free and through the fail -> degraded -> rebuild ->
    restore arc."""
    from repro.sched.non_clustered import TransitionProtocol
    kwargs: dict[str, object] = {"catalog": _mixed_rate_catalog()}
    if protocol is not None:
        kwargs["protocol"] = TransitionProtocol(protocol)
    results = []
    for fast_forward in (False, True):
        server = _scheme_server(scheme, **kwargs)
        for name in ("m0", "m1", "fast"):
            server.admit(name)
        assert any(s.rate == 3 for s in server.scheduler.streams.values())
        run = _plain_run if drive == "plain" else _rebuild_drive
        reports = run(server, fast_forward)
        results.append(_deep_fingerprint(server, reports))
    assert results[0] == results[1]
    assert server.report.ff_engaged_cycles > 0
    if drive == "plain":
        assert server.report.total_hiccups == 0


def test_fast_forward_advances_cycle_index() -> None:
    server = _scheme_server(Scheme.STREAMING_RAID)
    server.admit(server.catalog.names()[0])
    server.run_cycles(CYCLES, fast_forward=True)
    assert server.scheduler.cycle_index == CYCLES
    assert len(server.report.cycles) == CYCLES


# -- stable-degraded epochs ------------------------------------------------------


def _deep_fingerprint(server: MultimediaServer, reports: list) -> tuple:
    """The fingerprint plus the disk and rebuild surface: per-disk
    writes and fault-domain states, and every rebuilder's cursor."""
    return _fingerprint(server, reports) + (
        tuple(disk.writes for disk in server.array.disks),
        tuple(disk.state.name for disk in server.array.disks),
        tuple((r.disk_id, r.blocks_rebuilt, r.reads_consumed, r.completed)
              for r in server.scheduler.rebuilders),
    )


def _run_degraded_pair(scheme: Scheme, drive,
                       **kwargs: object) -> tuple[tuple, tuple, object]:
    slow = _scheme_server(scheme, **kwargs)
    fast = _scheme_server(scheme, **kwargs)
    for name in slow.catalog.names()[:3]:
        slow.admit(name)
        fast.admit(name)
    slow_reports = drive(slow, False)
    fast_reports = drive(fast, True)
    return (_deep_fingerprint(slow, slow_reports),
            _deep_fingerprint(fast, fast_reports),
            fast.report)


def _rebuild_drive(server: MultimediaServer, fast_forward: bool) -> list:
    """fail -> degraded steady state -> online rebuild -> restored."""
    reports = server.run_cycles(5, fast_forward=fast_forward)
    server.scheduler.fail_disk(0)
    reports += server.run_cycles(10, fast_forward=fast_forward)
    server.scheduler.start_rebuild(0, writes_per_cycle=1)
    reports += server.run_cycles(45, fast_forward=fast_forward)
    return reports


@pytest.mark.parametrize("scheme", ALL_IMPLEMENTED_SCHEMES,
                         ids=lambda s: s.value)
def test_degraded_rebuild_matches_scalar(scheme: Scheme) -> None:
    """The stable-degraded engine is bit-equal through an entire
    fail -> degraded -> rebuild -> restore arc, and actually engages;
    NC vetoes it while the cluster is degraded and engages once the
    rebuild restores it."""
    slow, fast, report = _run_degraded_pair(scheme, _rebuild_drive)
    assert fast == slow
    assert report.ff_engaged_cycles > 0
    if scheme is Scheme.NON_CLUSTERED:
        assert report.ff_disengagements.get("scheme-veto", 0) >= 1
    else:
        # The engine must hand rebuild completion back to the scalar
        # path.
        assert report.ff_disengagements.get("rebuild-complete", 0) >= 1


@pytest.mark.parametrize("protocol", ["lazy", "eager"])
def test_degraded_nc_protocols_match_scalar(protocol: str) -> None:
    """Both NC transition protocols run scalar while the cluster is
    degraded (a scheme veto) and match the scalar run."""
    from repro.sched.non_clustered import TransitionProtocol
    proto = (TransitionProtocol.EAGER if protocol == "eager"
             else TransitionProtocol.LAZY)
    slow, fast, report = _run_degraded_pair(
        Scheme.NON_CLUSTERED, _rebuild_drive, protocol=proto)
    assert fast == slow
    assert report.ff_engaged_cycles > 0
    assert report.ff_disengagements.get("scheme-veto", 0) >= 1


def test_nc_vetoes_the_engine_only_while_a_cluster_is_degraded() -> None:
    """NC's degraded transition (EAGER bursts, LAZY running XORs) runs
    scalar: a failed data disk vetoes the engine until its repair, and
    a failed parity disk, which degrades no cluster, does not.  No
    stream is admitted, so no pending hiccup cause answers first."""
    server = _scheme_server(Scheme.NON_CLUSTERED)
    sched = server.scheduler
    assert sched._ff_classify() is None
    sched.fail_disk(0)
    assert sched._ff_classify() == "scheme-veto"
    sched.repair_disk(0)
    assert sched._ff_classify() is None
    parity_disk = server.layout.cluster_disks(0)[-1]
    assert server.layout.is_parity_disk(parity_disk)
    sched.fail_disk(parity_disk)
    assert sched._ff_classify() is None


@pytest.mark.parametrize("scheme", ALL_IMPLEMENTED_SCHEMES,
                         ids=lambda s: s.value)
def test_degraded_media_error_matches_scalar(scheme: Scheme) -> None:
    """A latent sector error mid-epoch forces a scalar interlude; the
    run stays bit-equal and the engine re-engages once it clears."""
    def drive(server: MultimediaServer, fast_forward: bool) -> list:
        reports = server.run_cycles(5, fast_forward=fast_forward)
        server.scheduler.fail_disk(0)
        reports += server.run_cycles(5, fast_forward=fast_forward)
        position = sorted(server.array[1].positions())[0]
        server.inject_media_error(1, position, transient=True)
        reports += server.run_cycles(20, fast_forward=fast_forward)
        return reports

    slow, fast, report = _run_degraded_pair(scheme, drive)
    assert fast == slow
    assert report.ff_engaged_cycles > 0


@pytest.mark.parametrize("scheme", ALL_IMPLEMENTED_SCHEMES,
                         ids=lambda s: s.value)
def test_degraded_double_failure_matches_scalar(scheme: Scheme) -> None:
    """A second failure (data loss + shed) bails the engine; the scalar
    interlude and the surviving epochs stay bit-equal."""
    def drive(server: MultimediaServer, fast_forward: bool) -> list:
        reports = server.run_cycles(5, fast_forward=fast_forward)
        server.scheduler.fail_disk(0)
        reports += server.run_cycles(5, fast_forward=fast_forward)
        server.scheduler.fail_disk(1)
        reports += server.run_cycles(10, fast_forward=fast_forward)
        server.scheduler.repair_disk(0)
        server.scheduler.repair_disk(1)
        reports += server.run_cycles(10, fast_forward=fast_forward)
        return reports

    slow, fast, report = _run_degraded_pair(scheme, drive)
    assert fast == slow
    assert report.ff_engaged_cycles > 0


def _disjoint_partner(scheme: Scheme) -> "int | None":
    """A disk whose failure alongside disk 0 loses no data (disjoint
    parity groups), or None when the layout has no such pair."""
    probe = _scheme_server(scheme)
    num_disks = len(probe.array.disks)
    for candidate in range(1, num_disks):
        trial = _scheme_server(scheme)
        trial.scheduler.fail_disk(0)
        trial.scheduler.fail_disk(candidate)
        if not trial.scheduler._known_lost_tracks:
            return candidate
    return None


@pytest.mark.parametrize("scheme", ALL_IMPLEMENTED_SCHEMES,
                         ids=lambda s: s.value)
def test_disjoint_multi_failure_matches_scalar(scheme: Scheme) -> None:
    """K=2 independent failures in disjoint parity groups build a
    stable epoch: the engine engages instead of going 100% scalar."""
    partner = _disjoint_partner(scheme)
    if partner is None:
        pytest.skip("no group-disjoint failure pair in this layout")

    def drive(server: MultimediaServer, fast_forward: bool) -> list:
        reports = server.run_cycles(5, fast_forward=fast_forward)
        server.scheduler.fail_disk(0)
        reports += server.run_cycles(5, fast_forward=fast_forward)
        server.scheduler.fail_disk(partner)
        reports += server.run_cycles(15, fast_forward=fast_forward)
        return reports

    slow, fast, report = _run_degraded_pair(scheme, drive)
    assert fast == slow
    assert report.ff_engaged_cycles > 0
    assert report.ff_residency() > 0


@pytest.mark.parametrize("scheme", ALL_IMPLEMENTED_SCHEMES,
                         ids=lambda s: s.value)
def test_disjoint_multi_failure_dual_rebuild_matches_scalar(
        scheme: Scheme) -> None:
    """Two online rebuilds in flight advance as vectorised cursors in
    scalar rebuilder order, sharing one idle-slot budget per cycle."""
    partner = _disjoint_partner(scheme)
    if partner is None:
        pytest.skip("no group-disjoint failure pair in this layout")

    def drive(server: MultimediaServer, fast_forward: bool) -> list:
        reports = server.run_cycles(5, fast_forward=fast_forward)
        server.scheduler.fail_disk(0)
        server.scheduler.fail_disk(partner)
        reports += server.run_cycles(5, fast_forward=fast_forward)
        server.scheduler.start_rebuild(0, writes_per_cycle=1)
        server.scheduler.start_rebuild(partner, writes_per_cycle=1)
        reports += server.run_cycles(50, fast_forward=fast_forward)
        return reports

    slow, fast, report = _run_degraded_pair(scheme, drive)
    assert fast == slow
    assert report.ff_engaged_cycles > 0


def test_residency_counters_stay_out_of_the_fingerprint() -> None:
    """ff_engaged_cycles / ff_disengagements diverge between modes by
    design — the fingerprint (which both runs must share) excludes them,
    and ff_residency() reports the engaged fraction."""
    slow = _scheme_server(Scheme.STREAMING_RAID)
    fast = _scheme_server(Scheme.STREAMING_RAID)
    for name in slow.catalog.names()[:3]:
        slow.admit(name)
        fast.admit(name)
    slow.run_cycles(CYCLES, fast_forward=False)
    fast.run_cycles(CYCLES, fast_forward=True)
    assert slow.report.ff_engaged_cycles == 0
    assert slow.report.ff_residency() == 0.0
    assert fast.report.ff_engaged_cycles > 0
    assert 0.0 < fast.report.ff_residency() <= 1.0


def test_disengagement_reasons_are_tallied() -> None:
    """Every refused entry names its reason; payload mode is the
    canonical always-refused state."""
    server = _scheme_server(Scheme.STREAMING_RAID, verify_payloads=True)
    server.admit(server.catalog.names()[0])
    server.run_cycles(5, fast_forward=True)
    assert server.report.ff_engaged_cycles == 0
    assert server.report.ff_disengagements.get("payload-mode", 0) > 0


def _strike_server(scheme: Scheme) -> MultimediaServer:
    """Four 80-track titles, all admitted: still playing at cycle 15."""
    server = _scheme_server(scheme, catalog=tiny_catalog(4, tracks=80))
    for name in server.catalog.names():
        server.admit(name)
    return server


@pytest.mark.parametrize("scheme", ALL_IMPLEMENTED_SCHEMES,
                         ids=lambda s: s.value)
def test_mid_cycle_strike_after_batched_cycle_raises(scheme: Scheme) -> None:
    """A batched cycle materialises no reads, so a mid-cycle strike right
    after one has nothing to invalidate: the scheduler refuses it rather
    than silently drop the hiccups the scalar run records.  One scalar
    cycle restores the in-flight reads, and the strike then lands
    exactly as it does on an all-scalar run."""
    fast = _strike_server(scheme)
    fast.run_cycles(6, fast_forward=True)
    assert fast.report.ff_engaged_cycles > 0
    with pytest.raises(SimulationError):
        fast.fail_disk(0, mid_cycle=True)
    assert not fast.array[0].is_failed
    fast.run_cycle()
    slow = _strike_server(scheme)
    slow.run_cycles(7)
    for server in (slow, fast):
        server.fail_disk(0, mid_cycle=True)
        server.run_cycles(6)
    assert _fingerprint(fast, []) == _fingerprint(slow, [])


@pytest.mark.parametrize("scheme", ALL_IMPLEMENTED_SCHEMES,
                         ids=lambda s: s.value)
def test_closed_loop_rides_the_engine_through_refusals_and_completions(
        scheme: Scheme) -> None:
    """Eight 12-track titles under a limit of five: some title is
    refused at every top and streams complete every few cycles, yet the
    engine runs all 60 cycles in one epoch, re-admitting each finished
    title at the next top as the scalar front door does."""
    results = []
    for fast_forward in (False, True):
        server = _scheme_server(scheme, catalog=tiny_catalog(8, tracks=12),
                                admission_limit=5)
        reports, admitted, rejected = server.scheduler.run_churn(
            60, ClosedLoop(tuple(server.catalog.objects())), fast_forward)
        results.append((_fingerprint(server, reports), admitted, rejected))
    assert results[1] == results[0]
    # Five titles play at every top, so three are refused there.
    assert results[1][2] == 3 * 60
    assert any(stream.status.name == "COMPLETED"
               for stream in server.scheduler.streams.values())
    assert server.report.ff_engaged_cycles == 60
    assert server.report.ff_disengagements == {}


def _redundant_restores(*cycles: int) -> FaultSchedule:
    """Events that change no state: each restores an operational disk,
    so they only cut the run into windows."""
    return FaultSchedule(FaultEvent(cycle, 1, FaultAction.RESTORE)
                         for cycle in cycles)


@pytest.mark.parametrize("cycles, engaged, entries", [
    # Events two cycles apart: that window runs scalar.
    ((10, 12), CYCLES - 2, [(0, 10), (12, 18)]),
    # Four cycles apart: the window is batched.
    ((10, 10 + MIN_EPOCH_SPAN), CYCLES,
     [(0, 10), (10, MIN_EPOCH_SPAN), (10 + MIN_EPOCH_SPAN, 16)]),
])
def test_min_epoch_span_applies_to_windows_an_event_cuts_short(
        monkeypatch: pytest.MonkeyPatch, cycles: tuple[int, ...],
        engaged: int, entries: list[tuple[int, int]]) -> None:
    log: list[tuple[int, int]] = []
    run = epoch.run

    def logged_run(sched, limit, *args):
        log.append((sched.cycle_index, limit))
        return run(sched, limit, *args)

    def drive(server: MultimediaServer, fast_forward: bool) -> list:
        return server.run_with_schedule(CYCLES, _redundant_restores(*cycles),
                                        fast_forward=fast_forward)

    monkeypatch.setattr(epoch, "run", logged_run)
    slow, fast, report = _run_degraded_pair(Scheme.STREAMING_RAID, drive)
    assert fast == slow
    assert report.ff_engaged_cycles == engaged
    assert log == entries


def test_a_one_cycle_run_still_enters_the_engine() -> None:
    """A window that reaches the caller's end is entered however short:
    one-cycle calls, with no schedule, stay batched."""
    def drive(server: MultimediaServer, fast_forward: bool) -> list:
        reports: list = []
        for _ in range(CYCLES):
            reports += server.scheduler.run_churn(1, {}, fast_forward)[0]
        return reports

    slow, fast, report = _run_degraded_pair(Scheme.STREAMING_RAID, drive)
    assert fast == slow
    assert report.ff_engaged_cycles == CYCLES
