"""The cluster determinism contract: workers=1 == workers=4, bit for bit.

The acceptance test for the scale-out tentpole — every scheme runs the
same 4-shard cluster spec serially and through a four-worker session
pool, and the :meth:`ClusterReport.digest` fingerprints (which fold
every admit/reject decision, shard metric, and per-disk read counter)
must match exactly.  One parametrisation scripts a mid-trace disk
failure (with repair) on shard 1, so the contract is checked through
degraded-mode routing too, not just the quiescent path.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.cluster import ClusterSpec, run_cluster
from repro.faults.injector import FaultAction, FaultEvent
from repro.sched import epoch
from repro.sched.base import CycleScheduler
from repro.schemes import ALL_IMPLEMENTED_SCHEMES, Scheme
from repro.server.stream import Stream

#: One mid-trace failure on shard 1, repaired before the run ends: the
#: faulted shard sheds capacity, the router steers replicas away, and
#: the repair restores the limit — all of it must replay identically.
SHARD1_FAULT = ((1, FaultEvent(5, 3, mid_cycle=True)),
                (1, FaultEvent(10, 3, FaultAction.REPAIR)))


def spec(scheme: Scheme,
         faults: tuple[tuple[int, FaultEvent], ...] = ()) -> ClusterSpec:
    return ClusterSpec(
        scheme=scheme,
        shards=4,
        # 20 divides by the SR/SG/PD group size (5) and the IB data
        # stripe width (4), so one spec shape serves every scheme.
        disks_per_shard=20,
        parity_group_size=5,
        objects=8,
        tracks_per_object=30,
        slots_per_disk=8,
        admission_limit=10,
        cycles=14,
        window=7,
        arrivals_per_cycle=5.0,
        replicate_top_k=2,
        seed=29,
        fast_forward=True,
        faults=faults,
    )


def assert_bit_identical(cluster_spec: ClusterSpec) -> None:
    serial = run_cluster(cluster_spec, workers=1)
    pooled = run_cluster(cluster_spec, workers=4)
    assert serial.digest() == pooled.digest()
    # The digest covers these, but asserting them directly localises a
    # regression to the field that moved.
    assert serial.admitted == pooled.admitted
    assert serial.rejected == pooled.rejected
    assert serial.per_shard == pooled.per_shard
    assert serial.report.total_delivered == pooled.report.total_delivered
    assert serial.report.total_hiccups == pooled.report.total_hiccups
    # Some work actually happened on several shards.
    assert serial.admitted > 0
    assert sum(1 for s in serial.per_shard if s.admitted > 0) >= 2


@pytest.mark.parametrize("scheme", ALL_IMPLEMENTED_SCHEMES,
                         ids=lambda s: s.value)
def test_workers_do_not_change_the_cluster(scheme: Scheme) -> None:
    assert_bit_identical(spec(scheme))


def test_mid_trace_disk_failure_replays_identically() -> None:
    faulted_spec = spec(Scheme.STREAMING_RAID, faults=SHARD1_FAULT)
    faulted = run_cluster(faulted_spec, workers=1)
    quiet = run_cluster(spec(Scheme.STREAMING_RAID), workers=1)
    # The fault actually changed the run ...
    assert faulted.digest() != quiet.digest()
    # ... and still replays bit-identically under a worker pool.
    assert_bit_identical(faulted_spec)


def test_parity_declustered_fault_replays_identically() -> None:
    # PD rides its distributed-rebuild path through the same contract.
    assert_bit_identical(spec(Scheme.PARITY_DECLUSTERED,
                              faults=SHARD1_FAULT))


@pytest.mark.parametrize("scheme", ALL_IMPLEMENTED_SCHEMES,
                         ids=lambda s: s.value)
def test_mid_cycle_strike_on_a_window_start_matches_scalar(
        scheme: Scheme) -> None:
    # Cycle 7 opens the second routing window, so the cycle feeding the
    # strike is the last cycle of the first window's run: it must run
    # scalar even though the strike falls exactly on that run's end.
    faulted = spec(scheme, faults=(
        (1, FaultEvent(7, 3, mid_cycle=True)),
        (1, FaultEvent(12, 3, FaultAction.REPAIR))))
    fast = run_cluster(faulted, workers=1)
    slow = run_cluster(replace(faulted, fast_forward=False), workers=1)
    assert fast.digest() == slow.digest()


def test_fail_slow_on_one_shard_replays_identically() -> None:
    # Shards replay any FaultEvent, not only fail and repair: a
    # fail-slow window on shard 1 must fold to one digest at any worker
    # count, with or without the epoch engine.
    faults = ((1, FaultEvent(3, 2, FaultAction.DEGRADE, slowdown=2.0)),
              (1, FaultEvent(9, 2, FaultAction.RESTORE)))
    storm = spec(Scheme.STREAMING_RAID, faults=faults)
    serial = run_cluster(storm, workers=1)
    pooled = run_cluster(storm, workers=2)
    scalar = run_cluster(replace(storm, fast_forward=False), workers=1)
    assert serial.digest() == pooled.digest() == scalar.digest()
    calm = run_cluster(spec(Scheme.STREAMING_RAID), workers=1)
    assert serial.digest() != calm.digest()


#: Shard 1's faults across the 5-cycle barriers of :func:`barrier_spec`:
#: a fail on a window start repaired on a later one, a DEGRADE/RESTORE
#: pair inside one window, and a mid-cycle strike on a window start.
BARRIER_FAULTS = (
    (1, FaultEvent(25, 3)),
    (1, FaultEvent(60, 3, FaultAction.REPAIR)),
    (1, FaultEvent(82, 8, FaultAction.DEGRADE, slowdown=2.0)),
    (1, FaultEvent(84, 8, FaultAction.RESTORE)),
    (1, FaultEvent(110, 12, mid_cycle=True)),
)

#: The schemes whose shards the barrier tests run.
BARRIER_SCHEMES = (Scheme.STREAMING_RAID, Scheme.PARITY_DECLUSTERED,
                   Scheme.IMPROVED_BANDWIDTH)


def barrier_spec(scheme: Scheme,
                 faults: tuple[tuple[int, FaultEvent], ...] = (),
                 ) -> ClusterSpec:
    """Thirty 5-cycle windows of short titles: streams finish between
    barriers, and the replicated titles' routing reads every barrier's
    active-stream feedback."""
    return ClusterSpec(
        scheme=scheme, shards=2, disks_per_shard=20, parity_group_size=5,
        objects=8, tracks_per_object=12, slots_per_disk=8,
        admission_limit=10, cycles=150, window=5, arrivals_per_cycle=3.0,
        replicate_top_k=3, seed=11, faults=faults)


@pytest.mark.parametrize("scheme", BARRIER_SCHEMES, ids=lambda s: s.value)
def test_epochs_resume_across_barriers_bit_identically(
        scheme: Scheme) -> None:
    """Each shard keeps one driver, so its epoch pauses at a barrier and
    resumes after it; the faults close and reopen it.  The run folds to
    the scalar loop's digest at one and two workers."""
    storm = barrier_spec(scheme, BARRIER_FAULTS)
    fast = run_cluster(storm, workers=1)
    scalar = run_cluster(replace(storm, fast_forward=False), workers=1)
    pooled = run_cluster(storm, workers=2)
    assert fast.digest() == scalar.digest() == pooled.digest()
    assert fast.per_shard == pooled.per_shard
    assert all(shard.ff_engaged_cycles > 0 for shard in fast.per_shard)
    assert scalar.report.ff_engaged_cycles == 0
    calm = run_cluster(barrier_spec(scheme), workers=1)
    assert fast.digest() != calm.digest()


@pytest.mark.parametrize("scheme", BARRIER_SCHEMES, ids=lambda s: s.value)
def test_a_fault_free_shard_enters_the_engine_once(
        scheme: Scheme, monkeypatch: pytest.MonkeyPatch) -> None:
    entries: list[int] = []
    enter = epoch._Epoch.enter

    def counted(self: epoch._Epoch, sched: CycleScheduler,
                arrivals: epoch.Arrivals) -> object:
        entries.append(sched.cycle_index)
        return enter(self, sched, arrivals)

    monkeypatch.setattr(epoch._Epoch, "enter", counted)
    calm = run_cluster(barrier_spec(scheme), workers=1)
    assert entries == [0, 0]
    assert calm.report.ff_engaged_cycles == 2 * 150
    assert calm.report.ff_disengagements == {}


def test_a_cluster_pass_builds_streams_only_for_rows_live_at_close(
        monkeypatch: pytest.MonkeyPatch) -> None:
    """Each shard's engine admits every stream as a row alone and
    archives the rows that finish; only the rows still live when the
    drivers close become :class:`Stream` objects."""
    built: list[Stream] = []
    init = Stream.__init__

    def counted(self: Stream, *args: object, **kwargs: object) -> None:
        init(self, *args, **kwargs)  # type: ignore[arg-type]
        built.append(self)

    live_at_close: list[int] = []
    close = epoch.RowPool.close

    def closing(self: epoch.RowPool) -> None:
        live_at_close.append(int(np.count_nonzero(self.live)))
        close(self)

    monkeypatch.setattr(Stream, "__init__", counted)
    monkeypatch.setattr(epoch.RowPool, "close", closing)
    calm = run_cluster(barrier_spec(Scheme.STREAMING_RAID), workers=1)
    assert calm.report.ff_engaged_cycles == 2 * 150
    assert len(live_at_close) == 2
    assert len(built) == sum(live_at_close) < calm.admitted / 10
    assert all(stream.is_active for stream in built)

