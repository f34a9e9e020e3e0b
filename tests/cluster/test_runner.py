"""ClusterSpec validation, accounting identities, and report plumbing."""

from __future__ import annotations

import pytest

from repro.cluster import ClusterSpec, run_cluster
from repro.cluster.runner import (build_cluster_catalog,
                                  compile_cluster_trace, plan_shards)
from repro.cluster.placement import partition_catalog
from repro.faults.injector import FaultAction, FaultEvent
from repro.parallel import derive_seeds
from repro.schemes import Scheme


def small_spec(**overrides) -> ClusterSpec:
    base = dict(
        scheme=Scheme.STREAMING_RAID,
        shards=2,
        disks_per_shard=10,
        objects=6,
        tracks_per_object=20,
        admission_limit=8,
        cycles=10,
        window=5,
        arrivals_per_cycle=4.0,
        seed=17,
    )
    base.update(overrides)
    return ClusterSpec(**base)


def test_spec_validation() -> None:
    with pytest.raises(ValueError, match="shards"):
        small_spec(shards=0)
    with pytest.raises(ValueError, match="cycles"):
        small_spec(cycles=0)
    with pytest.raises(ValueError, match="window"):
        small_spec(window=0)
    with pytest.raises(ValueError, match="arrival rate"):
        small_spec(arrivals_per_cycle=0.0)
    with pytest.raises(ValueError, match="addresses shard 5"):
        small_spec(faults=((5, FaultEvent(1, 0)),))
    with pytest.raises(ValueError, match="addresses shard -1"):
        small_spec(faults=((-1, FaultEvent(1, 0)),))


def test_catalog_size_defaults_to_one_per_parity_group() -> None:
    assert small_spec(objects=None).catalog_size() == 4  # 2*10//5
    assert small_spec(objects=None, disks_per_shard=5,
                      shards=3).catalog_size() == 3  # floor hits shards
    assert small_spec(objects=9).catalog_size() == 9


def shard_specs_for(spec: ClusterSpec):
    seeds = derive_seeds(spec.seed, spec.shards + 2)
    catalog = build_cluster_catalog(spec)
    placement = partition_catalog(catalog, spec.shards, seed=seeds[0])
    return seeds, plan_shards(spec, placement, catalog)


def test_cluster_fault_localises() -> None:
    # A shard replays its events verbatim, in script order within a
    # cycle: the repair ahead of the failure that lands on its cycle.
    events = (
        FaultEvent(4, 2, mid_cycle=True),
        FaultEvent(9, 2, FaultAction.REPAIR),
        FaultEvent(9, 3),
        FaultEvent(5, 1, FaultAction.DEGRADE, slowdown=2.0),
    )
    spec = small_spec(faults=tuple((1, event) for event in events))
    _, shard_specs = shard_specs_for(spec)
    assert shard_specs[1].faults == events
    schedule = shard_specs[1].schedule()
    assert list(schedule) == [events[0], events[3], events[1], events[2]]
    assert schedule.events_before_cycle(9) == [events[1], events[2]]


def test_plan_shards_routes_faults_to_their_shard() -> None:
    spec = small_spec(faults=(
        (0, FaultEvent(2, 1)),
        (1, FaultEvent(3, 4)),
        (1, FaultEvent(6, 5)),
    ))
    _, shard_specs = shard_specs_for(spec)
    assert [len(s.faults) for s in shard_specs] == [1, 2]
    assert shard_specs[1].faults[0].cycle == 3
    assert all(s.scheme is spec.scheme for s in shard_specs)


def test_trace_is_cluster_wide_and_seed_stable() -> None:
    spec = small_spec()
    catalog = build_cluster_catalog(spec)
    first = compile_cluster_trace(spec, catalog, seed=99)
    again = compile_cluster_trace(spec, catalog, seed=99)
    other = compile_cluster_trace(spec, catalog, seed=100)
    assert first.digest() == again.digest()
    assert first.digest() != other.digest()
    assert all(name in catalog for _, name in first.items())


def test_run_accounts_for_every_request() -> None:
    result = run_cluster(small_spec(), workers=1)
    total = result.admitted + result.rejected + result.unarrived
    assert total == sum(s.routed for s in result.per_shard) \
        + result.unarrived
    assert result.admitted == sum(s.admitted for s in result.per_shard)
    assert result.rejected == sum(s.rejected for s in result.per_shard)
    assert result.capacity == sum(s.effective_limit
                                  for s in result.per_shard)
    assert result.admitted > 0


def test_digest_tracks_the_run_not_the_pool() -> None:
    first = run_cluster(small_spec(), workers=1)
    again = run_cluster(small_spec(), workers=1)
    other_seed = run_cluster(small_spec(seed=18), workers=1)
    assert first.digest() == again.digest()
    assert first.digest() != other_seed.digest()


def test_summary_names_the_shape() -> None:
    result = run_cluster(small_spec(), workers=1)
    line = result.summary()
    assert "2 shards x 10 disks" in line
    assert f"admitted {result.admitted}" in line
    assert result.digest()[:12] in line


def test_degraded_shard_dents_cluster_capacity() -> None:
    quiet = run_cluster(small_spec(), workers=1)
    faulted = run_cluster(small_spec(faults=(
        (1, FaultEvent(2, 0)),)), workers=1)
    assert faulted.per_shard[1].effective_limit \
        <= quiet.per_shard[1].effective_limit
    assert faulted.capacity <= quiet.capacity
