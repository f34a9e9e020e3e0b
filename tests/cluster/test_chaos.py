"""Cluster chaos campaigns: scripted shard storms, gated on determinism.

The script generator must be a pure function of (spec geometry, seed,
profile) that never writes an illegal fault — and the campaign runner
must pass its own digest gate (workers=1 == workers=N) with the storm
raging across every shard, fast-forward engines engaged.
"""

from __future__ import annotations

import pytest

from repro.cluster import (
    ClusterChaosProfile,
    ClusterSpec,
    generate_cluster_script,
    run_cluster_campaign,
)
from repro.faults.injector import FaultAction
from repro.schemes import ALL_IMPLEMENTED_SCHEMES, Scheme


def spec(scheme: Scheme = Scheme.STREAMING_RAID, shards: int = 3,
         cycles: int = 24, **kwargs: object) -> ClusterSpec:
    kwargs.setdefault("objects", 6)
    kwargs.setdefault("tracks_per_object", 30)
    kwargs.setdefault("admission_limit", 10)
    return ClusterSpec(
        scheme=scheme,
        shards=shards,
        disks_per_shard=20,
        parity_group_size=5,
        cycles=cycles,
        window=8,
        arrivals_per_cycle=5.0,
        seed=29,
        fast_forward=True,
        **kwargs,
    )


STORMY = ClusterChaosProfile(fail_probability=0.5, repair_probability=0.7,
                             min_repair_delay=2, max_repair_delay=6)


def test_script_is_deterministic() -> None:
    first = generate_cluster_script(spec(), 11, STORMY)
    second = generate_cluster_script(spec(), 11, STORMY)
    assert first == second
    assert first != generate_cluster_script(spec(), 12, STORMY)


def strikes(script, shard: int) -> list[list]:
    """``[cycle, disk, repair cycle or None]`` per scripted failure of
    one shard; each REPAIR must directly follow its FAIL."""
    found: list[list] = []
    for target, event in script:
        if target != shard:
            continue
        if event.action is FaultAction.FAIL:
            found.append([event.cycle, event.disk_id, None])
        else:
            assert event.action is FaultAction.REPAIR
            assert found[-1][1] == event.disk_id and found[-1][2] is None
            found[-1][2] = event.cycle
    return found


def test_script_respects_per_shard_failure_cap() -> None:
    script = generate_cluster_script(spec(shards=4, cycles=40), 3, STORMY)
    assert script
    for shard in range(4):
        failed: dict[int, int | None] = {}
        for cycle, disk_id, repair_cycle in strikes(script, shard):
            for disk, repair in list(failed.items()):
                if repair is not None and repair <= cycle:
                    del failed[disk]
            assert disk_id not in failed
            assert len(failed) < STORMY.max_concurrent_failures
            assert 0 <= disk_id < 20
            if repair_cycle is not None:
                assert repair_cycle > cycle
            failed[disk_id] = repair_cycle


def test_script_orders_failures_and_pairs_each_repair() -> None:
    # Failures in (cycle, shard, disk) order, each FAIL followed by its
    # REPAIR: on a shard's schedule, a repair then stays ahead of a
    # failure that lands on the same cycle.
    script = generate_cluster_script(spec(shards=4, cycles=40), 3, STORMY)
    keys = [(event.cycle, shard, event.disk_id) for shard, event in script
            if event.action is FaultAction.FAIL]
    assert keys == sorted(keys)
    for index, (shard, event) in enumerate(script):
        if event.action is FaultAction.REPAIR:
            previous_shard, previous = script[index - 1]
            assert previous.action is FaultAction.FAIL
            assert (previous_shard, previous.disk_id) == (shard,
                                                          event.disk_id)
    assert sum(len(strikes(script, shard)) for shard in range(4)) \
        == len(keys)


def test_adding_a_shard_leaves_existing_storms_alone() -> None:
    small = generate_cluster_script(spec(shards=2), 7, STORMY)
    large = generate_cluster_script(spec(shards=3), 7, STORMY)
    assert [(s, e) for s, e in large if s < 2] == list(small)


def test_empty_profile_scripts_nothing() -> None:
    calm = ClusterChaosProfile(fail_probability=0.0)
    assert generate_cluster_script(spec(), 1, calm) == ()


def test_profile_validation() -> None:
    with pytest.raises(ValueError):
        ClusterChaosProfile(fail_probability=1.5)
    with pytest.raises(ValueError):
        ClusterChaosProfile(min_repair_delay=0)
    with pytest.raises(ValueError):
        ClusterChaosProfile(min_repair_delay=5, max_repair_delay=4)


@pytest.mark.parametrize("scheme", ALL_IMPLEMENTED_SCHEMES,
                         ids=lambda s: s.value)
def test_campaign_passes_the_determinism_gate(scheme: Scheme) -> None:
    campaign = run_cluster_campaign(spec(scheme), 11, profile=STORMY,
                                    workers=3)
    assert campaign.passed, campaign.violations
    assert campaign.events > 0
    assert campaign.events == sum(
        event.action is FaultAction.FAIL for _, event in campaign.spec.faults)
    assert campaign.report.workers == 3
    # The storm actually perturbed the cluster relative to a calm run.
    calm = run_cluster_campaign(
        spec(scheme), 11, profile=ClusterChaosProfile(fail_probability=0.0))
    assert campaign.digest != calm.digest


def test_campaign_surfaces_shard_ff_diagnostics() -> None:
    campaign = run_cluster_campaign(spec(), 11, profile=STORMY)
    report = campaign.report
    # Fast-forward rode inside shard windows through the storm ...
    assert sum(s.ff_engaged_cycles for s in report.per_shard) > 0
    # ... and the fold matches the merged SimulationReport counters.
    assert (sum(s.ff_engaged_cycles for s in report.per_shard)
            == report.report.ff_engaged_cycles)
    assert (report.ff_disengagement_totals()
            == dict(sorted(report.report.ff_disengagements.items())))


def test_ff_diagnostics_stay_out_of_the_digest() -> None:
    import dataclasses
    result = run_cluster_campaign(spec(), 11, profile=STORMY).report
    scrubbed = dataclasses.replace(
        result,
        per_shard=tuple(
            dataclasses.replace(s, ff_engaged_cycles=0,
                                ff_disengagements=())
            for s in result.per_shard))
    assert scrubbed.digest() == result.digest()
