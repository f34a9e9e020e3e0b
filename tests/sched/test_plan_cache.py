"""The cycle-plan cache: correct memoization across placement and faults.

The cache memoizes per-(object, group) read plans keyed on the placement
and array-state epochs, and drops every plan when either moves.  These
tests pin the invalidation contract: a failure degrades the plan
immediately, a repair restores the original geometry, state changes that
bypass the scheduler (direct array failures, mid-cycle failures) are
caught no later than the next cycle, and plans after a placement change
equal a fresh server's.  The epoch engine's read tables share the key:
one tuple covers every placed object, whatever an entry's streams and
arrivals, until the key moves.
"""

from __future__ import annotations

import pytest

from repro.media import Catalog, MediaObject
from repro.schemes import Scheme
from repro.sched import epoch
from tests.conftest import build_server, tiny_catalog

SCHEMES = [
    pytest.param(Scheme.STREAMING_RAID, id="streaming-raid"),
    pytest.param(Scheme.STAGGERED_GROUP, id="staggered-group"),
    pytest.param(Scheme.NON_CLUSTERED, id="non-clustered"),
    pytest.param(Scheme.IMPROVED_BANDWIDTH, id="improved-bandwidth"),
]


def make_server(scheme: Scheme):
    num_disks = 12 if scheme is Scheme.IMPROVED_BANDWIDTH else 10
    return build_server(scheme, num_disks=num_disks,
                        catalog=tiny_catalog(4, tracks=40),
                        verify_payloads=False)


def plan_fields(plan):
    return (plan.healthy, plan.failed_members, plan.parity,
            plan.next_read_track)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_member_failure_degrades_then_repair_restores(scheme):
    server = make_server(scheme)
    sched = server.scheduler
    name = server.catalog.names()[0]
    stripe = server.config.stripe_width

    baseline = sched._group_plan(name, 0)
    assert baseline.failed_members == 0
    assert len(baseline.healthy) == stripe
    assert baseline.parity is not None

    member_disk = baseline.healthy[0][0]
    server.fail_disk(member_disk)
    assert sched._plan_cache == {}  # invalidated immediately

    degraded = sched._group_plan(name, 0)
    assert degraded.failed_members == 1
    assert len(degraded.healthy) == stripe - 1
    assert all(disk_id != member_disk
               for disk_id, _, _ in degraded.healthy)
    # Pointer advancement must not change with membership.
    assert degraded.next_read_track == baseline.next_read_track

    server.repair_disk(member_disk)
    restored = sched._group_plan(name, 0)
    assert plan_fields(restored) == plan_fields(baseline)
    # Same contents, fresh entry: the old epoch's plans were dropped.
    assert restored is not baseline


@pytest.mark.parametrize("scheme", SCHEMES)
def test_parity_disk_failure_blanks_parity_only(scheme):
    server = make_server(scheme)
    sched = server.scheduler
    name = server.catalog.names()[0]

    baseline = sched._group_plan(name, 0)
    parity_disk = baseline.parity[0]
    server.fail_disk(parity_disk)

    degraded = sched._group_plan(name, 0)
    assert degraded.parity is None
    assert degraded.failed_members == 0
    assert degraded.healthy == baseline.healthy

    server.repair_disk(parity_disk)
    assert plan_fields(sched._group_plan(name, 0)) == plan_fields(baseline)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_direct_array_failure_caught_at_next_cycle(scheme):
    """Failures injected behind the scheduler's back (array.fail) are
    picked up by the epoch check at the next run_cycle."""
    server = make_server(scheme)
    sched = server.scheduler
    name = server.catalog.names()[0]

    baseline = sched._group_plan(name, 0)
    member_disk = baseline.healthy[0][0]
    server.array.fail(member_disk)
    server.run_cycle()  # no streams; refreshes the cache key

    degraded = sched._group_plan(name, 0)
    assert degraded.failed_members == 1
    assert all(disk_id != member_disk
               for disk_id, _, _ in degraded.healthy)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_mid_cycle_failure_replans_around_failed_disk(scheme):
    server = make_server(scheme)
    sched = server.scheduler
    name = server.catalog.names()[0]
    server.admit(name)
    server.run_cycle()

    baseline = sched._group_plan(name, 0)
    member_disk = baseline.healthy[0][0]
    server.fail_disk(member_disk, mid_cycle=True)
    assert sched._group_plan(name, 0).failed_members == 1

    reads_before = server.array[member_disk].reads
    server.run_cycles(12)
    # Every subsequent plan routed around the failed disk: its read
    # counter never moves (a planned read on a failed disk would raise).
    assert server.array[member_disk].reads == reads_before


@pytest.mark.parametrize("scheme", SCHEMES)
def test_steady_state_reuses_cached_plans(scheme):
    server = make_server(scheme)
    sched = server.scheduler
    name = server.catalog.names()[0]

    server.admit(name)
    server.run_cycle()
    first = sched._group_plan(name, 0)
    server.run_cycle()
    # No failure, no placement change: the same objects are served.
    assert sched._group_plan(name, 0) is first


@pytest.mark.parametrize("scheme", SCHEMES)
def test_array_state_change_rebuilds_wholesale(scheme):
    server = make_server(scheme)
    sched = server.scheduler
    name = server.catalog.names()[0]
    sched._refresh_plan_cache()
    first = sched._group_plan(name, 0)
    # A state change behind the scheduler's back moves state_epoch: the
    # whole cache is dropped.
    parity_disk = first.parity[0]
    server.array.fail(parity_disk)
    sched._refresh_plan_cache()
    degraded = sched._group_plan(name, 0)
    assert degraded is not first
    assert degraded.parity is None
    server.array.repair(parity_disk)
    sched._refresh_plan_cache()
    restored = sched._group_plan(name, 0)
    assert restored is not first
    assert restored.parity == first.parity


@pytest.mark.parametrize("scheme", SCHEMES)
def test_plans_after_place_and_remove_match_a_fresh_server(scheme):
    warm = make_server(scheme)
    fresh = make_server(scheme)
    names = warm.catalog.names()
    warm.scheduler._refresh_plan_cache()
    for name in names:
        warm.scheduler._group_plan(name, 0)
    for server in (warm, fresh):
        server.layout.place(MediaObject("staged0", 0.1875, 40, seed=100))
        server.layout.remove(names[-1])
        server.scheduler._refresh_plan_cache()
    for name in names[:-1]:
        assert plan_fields(warm.scheduler._group_plan(name, 0)) == \
            plan_fields(fresh.scheduler._group_plan(name, 0))


def enter_epoch(server, arrivals: epoch.Arrivals) -> tuple:
    """Enter the epoch engine once; the read tables it entered with."""
    sched = server.scheduler
    sched._refresh_plan_cache()
    assert epoch._Epoch().enter(sched, arrivals) is None
    return sched._ff_tables


@pytest.mark.parametrize("scheme", SCHEMES)
def test_entries_under_one_key_share_one_read_table(scheme):
    server = make_server(scheme)
    server.admit("m0")
    get = server.catalog.get
    first = enter_epoch(server, {})
    assert enter_epoch(server, {0: (get("m2"),), 3: (get("m1"),)}) is first
    assert enter_epoch(server, epoch.ClosedLoop((get("m3"),))) is first
    bases = first[4]
    assert list(bases) == [obj.name for obj in server.layout.objects] \
        == server.catalog.names()


@pytest.mark.parametrize("change", ["place", "remove", "fail"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_placement_or_fault_change_builds_a_new_read_table(scheme, change):
    server = make_server(scheme)
    before = enter_epoch(server, {})
    if change == "place":
        server.layout.place(MediaObject("staged0", 0.1875, 40, seed=100))
    elif change == "remove":
        server.layout.remove("m3")
    else:
        server.scheduler.fail_disk(1)
    after = enter_epoch(server, {})
    assert list(after[4]) == [obj.name for obj in server.layout.objects]
    # Only a failure can give a table degraded columns, and only a
    # group-at-a-time one: NC's per-track table stays healthy (its
    # degraded transition runs scalar), so the failure hands back the
    # healthy tables kept with the layout's view.
    nc_fail = change == "fail" and scheme is Scheme.NON_CLUSTERED
    assert (after is before) == nc_fail
    assert (after[6] is not None) == (change == "fail" and not nc_fail)


def test_empty_layout_tables_hold_only_the_idle_position():
    server = build_server(Scheme.STREAMING_RAID, num_disks=10,
                          catalog=Catalog(), verify_payloads=False)
    unplaced = MediaObject("unplaced", 0.1875, 40, seed=1)
    counts, offsets, member_disks, next_pointers, bases = enter_epoch(
        server, {0: (unplaced,)})[:5]
    assert counts.tolist() == next_pointers.tolist() == [0]
    assert offsets.tolist() == [0, 0] and len(member_disks) == 0
    assert bases == {}
    # The engine runs the cycles over its idle rows and rejects the
    # unplaced arrival.
    _, admitted, rejected = server.scheduler.run_churn(3, {0: (unplaced,)})
    assert (admitted, rejected) == (0, 1)
    assert server.report.ff_engaged_cycles == 3
