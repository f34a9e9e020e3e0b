"""Cluster-scaling benchmark cells, importable by spawn workers.

``benchmarks/bench_cluster.py`` measures scale-out: the same 4-shard x
1000-disk workload (4000 disks, 10k+ streams cluster-wide) run with
``workers=1`` and ``workers=4`` through the session pool.  Spawn workers
can only run functions they can import, so — like the scale grid — the
cell logic lives here and the benchmark script delegates.

A cell returns wall-clock timings plus the deterministic cluster
metrics; the :class:`~repro.cluster.runner.ClusterReport` digest among
them is the serial-vs-parallel regression guard.
:func:`cost_per_stream_curve` extends the Figure 9 analysis with the
cluster cost closed form.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Any, Sequence

from repro.analysis.cost import cluster_cost_series
from repro.analysis.parameters import SystemParameters
from repro.cluster import ClusterSpec, run_cluster
from repro.experiments.harness import Record, Stopwatch, pool_gate, run_pair
from repro.schemes import Scheme

#: The acceptance-scale cluster: 4 x 1000 disks, ~10.4k stream capacity.
FULL_SHARDS = 4
FULL_DISKS_PER_SHARD = 1000
FULL_OBJECTS = 800
FULL_TRACKS = 200
FULL_SLOTS = 32
FULL_ADMISSION_LIMIT = 2600
FULL_CYCLES = 40
FULL_WINDOW = 10
FULL_ARRIVALS_PER_CYCLE = 300.0

#: CI-scale reduction: same shape, two shards, toy farm.
SMOKE_SHARDS = 2
SMOKE_DISKS_PER_SHARD = 40

#: Figure-9 extension knobs: the paper's 100 GB working set, C = 5.
CURVE_WORKING_SET_MB = 100_000.0
CURVE_REPLICATED_MB = 2_000.0
CURVE_SHARD_COUNTS = (1, 2, 4, 8, 16)

#: The pooled run must beat serial by this factor (full spec only, and
#: only where the host has the cores; see :func:`harness.pool_gate`).
SPEEDUP_GATE = 3.0


def full_spec(scheme: Scheme = Scheme.STREAMING_RAID,
              seed: int = 3) -> ClusterSpec:
    """The 4-shard / 4000-disk acceptance workload."""
    return ClusterSpec(
        scheme=scheme,
        shards=FULL_SHARDS,
        disks_per_shard=FULL_DISKS_PER_SHARD,
        objects=FULL_OBJECTS,
        tracks_per_object=FULL_TRACKS,
        slots_per_disk=FULL_SLOTS,
        admission_limit=FULL_ADMISSION_LIMIT,
        cycles=FULL_CYCLES,
        window=FULL_WINDOW,
        arrivals_per_cycle=FULL_ARRIVALS_PER_CYCLE,
        replicate_top_k=8,
        seed=seed,
        fast_forward=True,
    )


def smoke_spec(scheme: Scheme = Scheme.STREAMING_RAID,
               seed: int = 3) -> ClusterSpec:
    """A 2-shard reduced grid with the full spec's shape."""
    return replace(full_spec(scheme, seed), shards=SMOKE_SHARDS,
                   disks_per_shard=SMOKE_DISKS_PER_SHARD, objects=40,
                   tracks_per_object=100, slots_per_disk=8,
                   admission_limit=60, cycles=30, arrivals_per_cycle=8.0,
                   replicate_top_k=4)


def run_cluster_cell(spec: ClusterSpec, workers: int) -> Record:
    """One timed cluster run; wall clock plus deterministic metrics."""
    with Stopwatch() as run:
        result = run_cluster(spec, workers=workers)
    return {
        "scheme": spec.scheme.value,
        "shards": spec.shards,
        "disks_per_shard": spec.disks_per_shard,
        "total_disks": spec.shards * spec.disks_per_shard,
        "cycles": spec.cycles,
        "workers": workers,
        "admitted": result.admitted,
        "rejected": result.rejected,
        "unarrived": result.unarrived,
        "capacity": result.capacity,
        "hiccups": result.report.total_hiccups,
        "delivered": result.report.total_delivered,
        "digest": result.digest(),
        "run_s": run.seconds,
        "streams_per_s": round(result.admitted / run.seconds, 1),
    }


def run_cluster_gate(smoke: bool, workers: int) -> Record:
    """bench_cluster: the spec serial, then over ``workers`` sessions."""
    spec = smoke_spec() if smoke else full_spec()
    gate = None if smoke else pool_gate(SPEEDUP_GATE, workers)
    scaling = run_pair("scaling", partial(run_cluster_cell, spec),
                       modes=(1, workers), min_speedup=gate)
    return {"mode": "smoke" if smoke else "full",
            "pairs": {"scaling": scaling},
            "cost_per_stream_curve": cost_per_stream_curve()}


def cost_per_stream_curve(
        shard_counts: Sequence[int] = CURVE_SHARD_COUNTS,
        scheme: Scheme = Scheme.STREAMING_RAID,
        parity_group_size: int = 5) -> list[dict[str, Any]]:
    """The Figure-9 extension: cost per stream versus shard count."""
    params = SystemParameters.paper_table1(reserve_k=5)
    series = cluster_cost_series(
        params, parity_group_size, scheme, CURVE_WORKING_SET_MB,
        shard_counts, replicated_mb=CURVE_REPLICATED_MB)
    return [
        {
            "shards": breakdown.shards,
            "disks_per_shard": breakdown.per_shard.num_disks,
            "streams": breakdown.streams,
            "total_cost": round(breakdown.total, 2),
            "cost_per_stream": round(breakdown.cost_per_stream, 4),
        }
        for breakdown in series
    ]
