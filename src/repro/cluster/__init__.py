"""Sharded multi-node VoD cluster: scale-out over the session pool.

The paper sizes a single disk farm; ROADMAP item 3 asks what it takes to
serve the audience a single farm cannot.  This package answers with the
classic scale-out move, grounded in Viennot et al.'s distributed-VoD
bounds: run ``N`` fully independent shards — each a complete
layout/array/scheduler/server build — behind a deterministic front door.

* :mod:`repro.cluster.placement` — split the catalog over shards,
  optionally replicating the hottest titles k-way;
* :mod:`repro.cluster.shard` — the spawn-safe shard lifecycle
  (init / windowed step / finalise) for ``repro.parallel.SessionPool``;
* :mod:`repro.cluster.router` — least-loaded-copy dispatch with
  barrier-fed degraded-capacity awareness;
* :mod:`repro.cluster.runner` — orchestration and the merged
  :class:`~repro.cluster.runner.ClusterReport`;
* :mod:`repro.cluster.chaos` — seeded shard fault storms replayed
  through the runner, gated on worker-count digest invariance.

``workers=1`` and ``workers=N`` are bit-identical by construction; the
cluster benchmark gates its scaling numbers on that digest equality.
"""

from repro.cluster.chaos import (
    ClusterChaosProfile,
    ClusterChaosResult,
    generate_cluster_script,
    run_cluster_campaign,
)
from repro.cluster.placement import ShardPlacement, partition_catalog
from repro.cluster.router import ClusterRouter
from repro.cluster.runner import (
    ClusterReport,
    ClusterSpec,
    ShardSummary,
    run_cluster,
)
from repro.cluster.shard import (
    ShardResult,
    ShardSpec,
    ShardState,
    WindowResult,
    build_shard_server,
    finalise_shard,
    init_shard,
    run_shard_window,
)

__all__ = [
    "ClusterChaosProfile",
    "ClusterChaosResult",
    "ClusterReport",
    "ClusterRouter",
    "ClusterSpec",
    "ShardPlacement",
    "ShardResult",
    "ShardSpec",
    "ShardState",
    "ShardSummary",
    "WindowResult",
    "build_shard_server",
    "finalise_shard",
    "generate_cluster_script",
    "init_shard",
    "partition_catalog",
    "run_cluster",
    "run_cluster_campaign",
    "run_shard_window",
]
