"""Serial-vs-parallel bit-equality over the three ensemble drivers.

The determinism contract: for the same inputs, ``workers=1`` and
``workers=4`` produce byte-identical results — same values, same order —
because every task's RNG derives from ``(seed, task coordinates)`` and
the runner restores task-submission order.  These are the ISSUE's
acceptance checks, scaled down to CI-friendly sizes.
"""

from __future__ import annotations

from dataclasses import asdict

from repro.experiments.scalegrid import grid_digest, run_scale_grid
from repro.faults.chaos import ChaosProfile, run_campaign_grid
from repro.faults.reliability import (k_concurrent_condition,
                                      simulate_mean_time_to)
from repro.parallel import derive_seeds
from repro.schemes import Scheme

WORKERS = 4


def test_reliability_replications_bit_identical() -> None:
    kwargs = dict(num_disks=10, mttf_disk_hours=200.0, mttr_disk_hours=8.0,
                  condition=k_concurrent_condition(2), replications=24,
                  seed=42)
    serial = simulate_mean_time_to(workers=1, **kwargs)
    pooled = simulate_mean_time_to(workers=WORKERS, **kwargs)
    assert asdict(pooled) == asdict(serial)
    assert pooled.mean_hours == serial.mean_hours


def test_chaos_campaign_grid_bit_identical() -> None:
    seeds = list(derive_seeds(7, 2))
    profile = ChaosProfile(cycles=12)
    schemes = [Scheme.STREAMING_RAID, Scheme.NON_CLUSTERED]
    serial = run_campaign_grid(seeds, schemes=schemes, profile=profile,
                               workers=1)
    pooled = run_campaign_grid(seeds, schemes=schemes, profile=profile,
                               workers=WORKERS)
    assert [asdict(r) for r in pooled] == [asdict(r) for r in serial]
    assert [r.digest for r in pooled] == [r.digest for r in serial]


def test_scale_grid_digest_bit_identical() -> None:
    sizes = (20,)
    schemes = (Scheme.STREAMING_RAID, Scheme.STAGGERED_GROUP)
    serial = run_scale_grid(sizes, schemes=schemes, workers=1)
    pooled = run_scale_grid(sizes, schemes=schemes, workers=WORKERS)
    assert grid_digest(pooled) == grid_digest(serial)


def test_scale_grid_digest_invariant_under_fast_forward() -> None:
    sizes = (20,)
    schemes = (Scheme.STREAMING_RAID,)
    plain = run_scale_grid(sizes, schemes=schemes, workers=1)
    fast = run_scale_grid(sizes, schemes=schemes, workers=1,
                          fast_forward=True)
    assert grid_digest(fast) == grid_digest(plain)
