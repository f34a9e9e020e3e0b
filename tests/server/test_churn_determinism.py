"""Churn-path determinism: ``run_workload(fast_forward=True)`` == scalar.

Every test drives two identical servers with the same compiled trace —
one through the per-cycle scalar loop, one through the scheduler's churn
engine — and requires the full state fingerprint (reports, disk
counters, buffer tracker, per-stream state, summary) to match exactly,
along with the front-door ``WorkloadResult`` accounting.  The workload
and churn pairs also compare every stream slot for slot
(:func:`~tests.conftest.assert_same_streams`): the streams the engine
admitted and saw finish are rebuilt from its archive, and must carry
the phase, rate, admission cycle, object and empty accumulators the
scalar loop's streams carry.
"""

from __future__ import annotations

import pytest

from repro.errors import AdmissionError
from repro.faults.injector import FaultSchedule
from repro.media import MediaObject
from repro.schemes import ALL_IMPLEMENTED_SCHEMES, Scheme
from repro.server.metrics import SimulationReport
from repro.server.server import MultimediaServer, WorkloadResult
from repro.workload import WorkloadGenerator, compile_trace
from tests.conftest import assert_same_streams, build_server, tiny_catalog
from tests.sched.test_fast_forward import STRIKE_TIMINGS, _fingerprint

CYCLES = 60
HORIZON_CYCLES = 40


def _server(scheme: Scheme, **kwargs: object) -> MultimediaServer:
    if scheme is Scheme.IMPROVED_BANDWIDTH:
        num_disks = 12
    elif scheme is Scheme.PARITY_DECLUSTERED:
        num_disks = 11  # prime: exact declustered design
    else:
        num_disks = 10
    kwargs.setdefault("catalog", tiny_catalog(4, tracks=8))
    kwargs.setdefault("verify_payloads", False)
    return build_server(scheme, num_disks=num_disks, **kwargs)


def _trace(server: MultimediaServer, rate: float, seed: int):
    cycle_length = server.config.cycle_length_s
    generator = WorkloadGenerator(server.catalog,
                                  arrival_rate_per_s=rate / cycle_length,
                                  seed=seed)
    return generator.trace(HORIZON_CYCLES * cycle_length)


def _workload_pair(scheme: Scheme, rate: float = 0.8, seed: int = 7,
                   with_fault: bool = False, mid_cycle: bool = False,
                   **kwargs: object,
                   ) -> tuple[WorkloadResult, WorkloadResult, object]:
    """Scalar vs fast ``run_workload``; returns both front-door results
    and the fast server's report."""
    slow = _server(scheme, **kwargs)
    fast = _server(scheme, **kwargs)
    schedule_for = (
        (lambda: FaultSchedule.single_failure(8, 1, repair_cycle=20,
                                              mid_cycle=mid_cycle))
        if with_fault else (lambda: None))
    slow_result = slow.run_workload(_trace(slow, rate, seed), CYCLES,
                                    schedule=schedule_for())
    fast_result = fast.run_workload(_trace(fast, rate, seed), CYCLES,
                                    fast_forward=True,
                                    schedule=schedule_for())
    assert _fingerprint(slow, []) == _fingerprint(fast, [])
    assert_same_streams(fast, slow)
    return slow_result, fast_result, fast.report


@pytest.mark.parametrize("scheme", ALL_IMPLEMENTED_SCHEMES,
                         ids=lambda s: s.value)
def test_workload_fast_forward_matches_scalar(scheme: Scheme) -> None:
    slow, fast, _ = _workload_pair(scheme)
    assert slow == fast
    assert slow.admitted > 0 and slow.rejected == 0


@pytest.mark.parametrize("scheme", ALL_IMPLEMENTED_SCHEMES,
                         ids=lambda s: s.value)
def test_workload_rejections_identical(scheme: Scheme) -> None:
    # A tight admission limit forces in-engine rejections on the fast
    # path; the counts and the resulting system state must still match.
    slow, fast, _ = _workload_pair(scheme, rate=1.5, seed=11,
                                   admission_limit=3)
    assert slow == fast
    assert slow.rejected > 0


@pytest.mark.parametrize("scheme, mid_cycle", STRIKE_TIMINGS)
def test_workload_matches_scalar_through_fault(scheme: Scheme,
                                               mid_cycle: bool) -> None:
    # A mid-trace failure and repair: the fast run stops its epochs at
    # the fault cycles (one early for a mid-cycle strike) and bails
    # around degraded stretches, scalar-identically.
    slow, fast, _ = _workload_pair(scheme, seed=5, with_fault=True,
                                   mid_cycle=mid_cycle)
    assert slow == fast


def _mixed_catalog():
    """The default four base-rate titles plus one rate-3 title (an
    MPEG-2 stream on an MPEG-1 cycle)."""
    catalog = tiny_catalog(4, tracks=8)
    catalog.add(MediaObject("fast", 0.5625, 24, seed=99))
    return catalog


@pytest.mark.parametrize("scheme", ALL_IMPLEMENTED_SCHEMES,
                         ids=lambda s: s.value)
def test_mixed_rate_workload_matches_scalar_and_stays_engaged(
        scheme: Scheme) -> None:
    # Rate-3 arrivals join the epoch's rows instead of ending it: the
    # fault-free run never leaves the engine and never hiccups.
    slow, fast, report = _workload_pair(scheme, catalog=_mixed_catalog())
    assert slow == fast
    assert report.total_hiccups == 0
    assert report.ff_residency() == 1.0


def _churn_arrivals(server: MultimediaServer,
                    spec: dict[int, tuple[int, ...]],
                    ) -> dict[int, tuple[object, ...]]:
    names = server.catalog.names()
    return {cycle: tuple(server.catalog.get(names[i % len(names)])
                         for i in picks)
            for cycle, picks in spec.items()}


def _churn_pair(scheme: Scheme, spec: dict[int, tuple[int, ...]],
                cycles: int = 20, prepare=None,
                **kwargs: object) -> tuple[tuple, tuple, object]:
    """Scalar vs churn-engine ``run_churn`` from the state ``prepare``
    leaves; each side's fingerprint ends with (admitted, rejected)."""
    results = []
    servers = []
    for fast_forward in (False, True):
        server = _server(scheme, **kwargs)
        if prepare is not None:
            prepare(server)
        reports, admitted, rejected = server.scheduler.run_churn(
            cycles, _churn_arrivals(server, spec),
            fast_forward=fast_forward)
        assert len(reports) == cycles
        results.append(_fingerprint(server, reports) + (admitted, rejected))
        servers.append(server)
    assert_same_streams(servers[1], servers[0])
    return results[0], results[1], servers[1].report


def _degraded_churn_pair(scheme: Scheme,
                         spec: dict[int, tuple[int, ...]],
                         cycles: int = 20,
                         prepare=None,
                         **kwargs: object) -> tuple[tuple, tuple, object]:
    """Scalar vs churn-engine run over a *degraded* server."""
    def degrade(server: MultimediaServer) -> None:
        server.fail_disk(1)
        if prepare is not None:
            prepare(server)

    return _churn_pair(scheme, spec, cycles, degrade, **kwargs)


def _vetoed_throughout(report: SimulationReport, cycles: int = 20) -> bool:
    """NC's degraded transition runs scalar: the engine refuses every
    cycle's entry with the scheme veto while a cluster is degraded."""
    return report.ff_disengagements == {"scheme-veto": cycles}


@pytest.mark.parametrize("scheme", ALL_IMPLEMENTED_SCHEMES,
                         ids=lambda s: s.value)
def test_degraded_churn_matches_scalar_and_engages(scheme: Scheme) -> None:
    # The merged engine absorbs arrivals *without leaving the epoch*:
    # a single-failure server under churn stays vectorised, bit-equal
    # to the scalar front door.
    slow, fast, report = _degraded_churn_pair(
        scheme, {2: (0,), 7: (1, 2), 13: (3,)})
    assert fast == slow
    if scheme is Scheme.NON_CLUSTERED:
        assert _vetoed_throughout(report)
    else:
        assert report.ff_engaged_cycles > 0


@pytest.mark.parametrize("scheme", ALL_IMPLEMENTED_SCHEMES,
                         ids=lambda s: s.value)
def test_mixed_rate_degraded_churn_matches_scalar_and_stays_engaged(
        scheme: Scheme) -> None:
    # A stable degraded farm admitting rate-3 streams: reconstruction
    # rows and three table steps per cycle share every epoch.
    slow, fast, report = _degraded_churn_pair(
        scheme, {2: (0, 4), 7: (1, 2), 13: (3, 4)},
        catalog=_mixed_catalog())
    assert fast == slow
    if scheme is Scheme.NON_CLUSTERED:
        assert _vetoed_throughout(report)
    else:
        assert report.ff_residency() == 1.0


def _start_rebuild(server: MultimediaServer) -> None:
    server.fail_disk(1)
    server.scheduler.start_rebuild(1, writes_per_cycle=1)


#: Fault states a churn run can start from: healthy, one failed disk,
#: and that disk under online rebuild.
CHURN_STATES = {
    "healthy": None,
    "degraded": lambda server: server.fail_disk(1),
    "rebuild": _start_rebuild,
}

#: Long enough that the engine's row pool retires and compacts: two
#: requests a cycle make 240 admissions, while at most 16 streams are
#: active at once.
COMPACTION_CYCLES = 120


@pytest.mark.parametrize("state", list(CHURN_STATES))
@pytest.mark.parametrize("scheme", ALL_IMPLEMENTED_SCHEMES,
                         ids=lambda s: s.value)
def test_churn_across_row_compaction_matches_scalar(
        scheme: Scheme, state: str) -> None:
    # A base-rate and a rate-3 request every cycle: 240 requests in one
    # epoch, far more than the live rows, so finished rows are retired
    # and the survivors compacted several times mid-epoch.  Fingerprints
    # and the admitted/rejected split must match the scalar front door.
    slow, fast, report = _churn_pair(
        scheme, {cycle: (0, 4) for cycle in range(COMPACTION_CYCLES)},
        cycles=COMPACTION_CYCLES, prepare=CHURN_STATES[state],
        catalog=_mixed_catalog())
    assert fast == slow
    if scheme is Scheme.NON_CLUSTERED and state == "degraded":
        assert _vetoed_throughout(report, COMPACTION_CYCLES)
    elif scheme is Scheme.NON_CLUSTERED and state == "rebuild":
        # Vetoed until the rebuild restores the cluster, engaged after.
        assert report.ff_disengagements.get("scheme-veto", 0) >= 1
        assert report.ff_engaged_cycles > 0
    elif state == "rebuild":
        assert report.ff_disengagements.get("rebuild-complete") == 1
    else:
        assert report.ff_engaged_cycles == COMPACTION_CYCLES


def test_unplaced_arrivals_on_an_idle_farm_match_scalar() -> None:
    # No streams and no placed title in the window: the engine's working
    # set is empty, it allocates no rows, and it rejects every request
    # exactly as the scalar front door does.
    ghost = MediaObject("ghost", 0.1875, 8, seed=5)
    results = []
    for fast_forward in (False, True):
        server = _server(Scheme.STREAMING_RAID)
        reports, admitted, rejected = server.scheduler.run_churn(
            10, {2: (ghost,), 5: (ghost, ghost)},
            fast_forward=fast_forward)
        results.append(_fingerprint(server, reports) + (admitted, rejected))
    assert results[0] == results[1]
    assert results[1][-2:] == (0, 3)
    assert server.report.ff_engaged_cycles == 10


def test_refused_entries_are_tallied_once() -> None:
    # One tally per refused engine entry: run_churn on a payload-mode
    # server refuses every cycle exactly once, arrival cycle or not,
    # the same count run_cycles records.
    churn = _server(Scheme.STREAMING_RAID, verify_payloads=True)
    obj = churn.catalog.get(churn.catalog.names()[0])
    churn.scheduler.run_churn(10, {2: (obj,), 7: (obj,)})
    plain = _server(Scheme.STREAMING_RAID, verify_payloads=True)
    plain.run_cycles(10, fast_forward=True)
    assert churn.report.ff_disengagements == {"payload-mode": 10}
    assert plain.report.ff_disengagements == {"payload-mode": 10}


@pytest.mark.parametrize("scheme", ALL_IMPLEMENTED_SCHEMES,
                         ids=lambda s: s.value)
def test_degraded_churn_mid_rebuild_matches_scalar(scheme: Scheme) -> None:
    # Arrivals landing while an online rebuild is in flight: admission,
    # reconstruction rows, and the rebuild cursor share one epoch.
    slow, fast, report = _degraded_churn_pair(
        scheme, {3: (0,), 9: (1,), 15: (2,)}, cycles=30,
        prepare=lambda server: server.scheduler.start_rebuild(
            1, writes_per_cycle=1))
    assert fast == slow
    assert report.ff_engaged_cycles > 0


@pytest.mark.parametrize("scheme", ALL_IMPLEMENTED_SCHEMES,
                         ids=lambda s: s.value)
def test_degraded_churn_saturation_matches_scalar(scheme: Scheme) -> None:
    # Admission saturation while degraded: the in-engine decision must
    # enforce the *degraded* capacity (fault-aware limit), rejecting
    # exactly the requests the scalar front door rejects.
    slow, fast, report = _degraded_churn_pair(
        scheme, {2: (0, 1, 2, 3), 8: (0, 1), 14: (2, 3)},
        admission_limit=3)
    assert fast == slow
    rejected = slow[-1]
    assert rejected > 0


def _disjoint_failure_partner(scheme: Scheme,
                              shared: bool) -> "int | None":
    """A disk to fail alongside disk 1: sharing a parity group with it
    (``shared=True``) or disjoint from it (``shared=False``)."""
    for candidate in range(2, 12):
        probe = _server(scheme)
        if candidate >= len(probe.array.disks):
            break
        probe.fail_disk(1)
        probe.fail_disk(candidate)
        if bool(probe.scheduler._known_lost_tracks) == shared:
            return candidate
    return None


@pytest.mark.parametrize("scheme", ALL_IMPLEMENTED_SCHEMES,
                         ids=lambda s: s.value)
def test_double_failure_disjoint_churn_matches_scalar(
        scheme: Scheme) -> None:
    # Two failed disks in disjoint parity groups build a stable
    # multi-failure epoch: the engine stays engaged under churn.
    partner = _disjoint_failure_partner(scheme, shared=False)
    if partner is None:
        pytest.skip("no group-disjoint failure pair in this layout")
    slow, fast, report = _degraded_churn_pair(
        scheme, {2: (0,), 9: (1,)},
        prepare=lambda server: server.fail_disk(partner))
    assert fast == slow
    if scheme is Scheme.NON_CLUSTERED:
        assert _vetoed_throughout(report)
    else:
        assert report.ff_engaged_cycles > 0


@pytest.mark.parametrize("scheme", ALL_IMPLEMENTED_SCHEMES,
                         ids=lambda s: s.value)
def test_double_failure_shared_group_bails(scheme: Scheme) -> None:
    # Failures sharing a parity group lose data: the engine must refuse
    # with the shared-group reason and stay bit-equal through the
    # scalar fallback.
    partner = _disjoint_failure_partner(scheme, shared=True)
    if partner is None:
        pytest.skip("no shared-group failure pair in this layout")
    slow, fast, report = _degraded_churn_pair(
        scheme, {2: (0,), 9: (1,)},
        prepare=lambda server: server.fail_disk(partner))
    assert fast == slow
    assert report.ff_disengagements.get("shared-group", 0) >= 1


def test_unarrived_requests_are_counted() -> None:
    server = _server(Scheme.STREAMING_RAID)
    trace = _trace(server, rate=0.5, seed=2)
    result = server.run_workload(trace, cycles=HORIZON_CYCLES // 2)
    assert result.unarrived > 0
    assert result.admitted + result.rejected + result.unarrived == len(trace)


def test_precompiled_trace_is_accepted() -> None:
    slow = _server(Scheme.STREAMING_RAID)
    fast = _server(Scheme.STREAMING_RAID)
    compiled = compile_trace(_trace(slow, 0.8, 7),
                             slow.config.cycle_length_s)
    slow_result = slow.run_workload(compiled, CYCLES)
    fast_result = fast.run_workload(compiled, CYCLES, fast_forward=True)
    assert slow_result == fast_result
    assert _fingerprint(slow, []) == _fingerprint(fast, [])


#: Fault state before the batch, by id suffix.  One failed disk makes
#: the fault-aware limit bite (PD and pool-less NC halve it).  Disk 1
#: fail-slow at 1.5x zeroes the limit on this farm, so every request is
#: refused: the state every chaos rejection happens in.  With disks 0
#: and 1 failed, objects with lost tracks are refused.
FAULT_STATES = ("", "-failed", "-slow", "-lost")

#: (scheme, NC buffer-pool clusters, fault state) per case: every scheme
#: (ids ``SR``..., ``SR-failed``..., ``SR-slow``..., ``SR-lost``...),
#: plus pool-less NC.
ADMISSION_STATES = [
    pytest.param(scheme, pool, state,
                 id=scheme.value + ("-nopool" if pool == 0 else "") + state)
    for scheme, pool in [(s, None) for s in ALL_IMPLEMENTED_SCHEMES]
    + [(Scheme.NON_CLUSTERED, 0)]
    for state in FAULT_STATES]


def _enter_fault_state(server: MultimediaServer, state: str) -> None:
    if state == "-failed":
        server.fail_disk(1)
    elif state == "-slow":
        server.degrade_disk(1, 1.5)
    elif state == "-lost":
        server.fail_disk(0)
        server.fail_disk(1)


@pytest.mark.parametrize("scheme, pool_clusters, state", ADMISSION_STATES)
def test_admit_batch_matches_sequential(scheme: Scheme,
                                        pool_clusters: int | None,
                                        state: str) -> None:
    # ``run_workload``'s scalar reference and the chaos replay admit
    # through ``admit_batch``, so the batch must match one ``admit`` per
    # request on degraded farms too, where the fault-aware limit bites.
    servers = []
    for _ in range(2):
        server = _server(scheme, admission_limit=6,
                         pool_clusters=pool_clusters)
        _enter_fault_state(server, state)
        servers.append(server)
    sequential, batched = servers
    objects = [sequential.catalog.get(name)
               for name in sequential.catalog.names() * 3]
    admitted, rejected = 0, 0
    for obj in objects:
        try:
            sequential.scheduler.admit(obj)
            admitted += 1
        except AdmissionError:
            rejected += 1
    streams, batch_rejected = batched.scheduler.admit_batch(
        [batched.catalog.get(obj.name) for obj in objects])
    assert (len(streams), batch_rejected) == (admitted, rejected)
    assert [(s.stream_id, s.object.name, s.phase) for s in streams] == [
        (s.stream_id, s.object.name, s.phase)
        for s in sorted(sequential.scheduler.streams.values(),
                        key=lambda s: s.stream_id)]
    assert _fingerprint(sequential, []) == _fingerprint(batched, [])
